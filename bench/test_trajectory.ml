(* The checked-in trajectory points are well formed — every object's
   keys are unique (a duplicate key is silently resolved one way or the
   other by each JSON reader), the top-level "scale" is a number, and a
   top-level "pr" equals the N in the file name — the trajectory fold
   over them computes the PR-9 -> PR-10 engine ratio from the two files'
   own values, and the report warns only beyond the noise band. *)

module J = Benchsuite.Json

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

let rec duplicate_keys path = function
  | J.Obj kv ->
      let keys = List.map fst kv in
      let dups =
        List.filter
          (fun k -> List.length (List.filter (String.equal k) keys) > 1)
          (List.sort_uniq String.compare keys)
      in
      List.map (fun k -> path ^ "." ^ k) dups
      @ List.concat_map (fun (k, v) -> duplicate_keys (path ^ "." ^ k) v) kv
  | J.Arr items ->
      List.concat
        (List.mapi
           (fun i v -> duplicate_keys (Printf.sprintf "%s[%d]" path i) v)
           items)
  | J.Null | J.Bool _ | J.Num _ | J.Str _ -> []

let check_point (n, path) =
  let json = J.read_file path in
  let file = Filename.basename path in
  List.iter (fun k -> expect false "%s: duplicate key %s" file k)
    (duplicate_keys "" json);
  (match J.member "scale" json with
  | Some (J.Num _) -> ()
  | _ -> expect false "%s: top-level \"scale\" is not a number" file);
  match J.member "pr" json with
  | None -> ()
  | Some (J.Num pr) ->
      expect (pr = float_of_int n) "%s: \"pr\" is %g, not %d" file pr n
  | Some _ -> expect false "%s: \"pr\" is not a number" file

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The report against one synthetic point: the warning fires only when
   the run is worse by more than the larger of the two spreads. *)
let check_band () =
  let point rate spread =
    J.parse
      (Printf.sprintf
         "{\"scale\": 1, \"engine\": {\"events_per_sec\": %g%s}}" rate
         (match spread with
         | Some s -> Printf.sprintf ", \"events_per_sec_spread\": %g" s
         | None -> ""))
  in
  let report run =
    Format.asprintf "%t" (fun ppf ->
        Trajectory.report ppf ~run [ ("PR1", point 100. (Some 0.02)) ])
  in
  let warned run = contains ~sub:"PERF WARNING (trajectory)" (report run) in
  expect (warned (point 90. (Some 0.05))) "11%% slower, 5%% band: no warning";
  expect (not (warned (point 97. (Some 0.05)))) "3%% slower, 5%% band: warned";
  expect (warned (point 97. (Some 0.01))) "3%% slower, 2%% band: no warning";
  let r = report (point 50. None) in
  expect
    (contains ~sub:"no band" r && not (contains ~sub:"PERF WARNING" r))
    "a run without a spread is not compared";
  expect
    (contains ~sub:"nothing to compare"
       (report (J.parse "{\"scale\": 0.1, \"engine\": {}}")))
    "a run of another scale is compared with a point"

(* Host calibration: a headline that slowed down exactly as much as the
   reference kernel did is the host, not the code; one that slowed down
   while the kernel held steady is the code.  The engine rate, which
   times the kernel's own loop, is judged raw. *)
let check_calibration () =
  let point ~kernel ~explore ~engine =
    J.parse
      (Printf.sprintf
         "{\"scale\": 1, \"calibration\": {\"kernel_events_per_sec\": %g, \
          \"kernel_events_per_sec_spread\": 0.02}, \"engine\": \
          {\"events_per_sec\": %g, \"events_per_sec_spread\": 0.02}, \
          \"mc_explore\": {\"schedules_per_sec\": %g, \
          \"schedules_per_sec_spread\": 0.02}}"
         kernel engine explore)
  in
  let before = point ~kernel:100. ~explore:100. ~engine:100. in
  let warnings run =
    let r =
      Format.asprintf "%t" (fun ppf ->
          Trajectory.report ppf ~run [ ("PR1", before) ])
    in
    List.filter
      (fun l -> contains ~sub:"PERF WARNING (trajectory)" l)
      (String.split_on_char '\n' r)
  in
  let warned_about sub run = List.exists (contains ~sub) (warnings run) in
  expect
    (not (warned_about "mc_explore" (point ~kernel:80. ~explore:80. ~engine:100.)))
    "kernel and headline both 0.8x: warned";
  expect
    (warned_about "mc_explore" (point ~kernel:100. ~explore:80. ~engine:100.))
    "headline 0.8x with the kernel unchanged: no warning";
  expect
    (warned_about "mc_explore" (point ~kernel:125. ~explore:100. ~engine:100.))
    "headline unchanged on a 1.25x faster host: no warning";
  expect
    (warned_about "engine.events_per_sec"
       (point ~kernel:80. ~explore:80. ~engine:80.))
    "engine rate 0.8x on a 0.8x host: not judged raw";
  expect
    (warned_about "mc_explore" (point ~kernel:80. ~explore:60. ~engine:100.))
    "headline 0.6x on a 0.8x host (0.75x calibrated): no warning"

let engine_at label points =
  Option.bind (List.assoc_opt label points) (fun p ->
      Option.bind (J.member "engine" p) (J.member "events_per_sec"))

let () =
  let root =
    match Trajectory.find_root (Sys.getcwd ()) with
    | Some r -> r
    | None -> failwith "no dune-project above the working directory"
  in
  let files = Trajectory.files root in
  expect (List.length files >= 9) "only %d BENCH_PR<N>.json found under %s"
    (List.length files) root;
  List.iter check_point files;
  let points = Trajectory.load root in
  let series = Trajectory.series Trajectory.engine_events_per_sec points in
  (match (engine_at "PR9" points, engine_at "PR10" points,
          List.find_opt (fun (l, _, _, _) -> l = "PR10") series)
   with
  | Some (J.Num v9), Some (J.Num v10), Some (_, Some v, Some ratio, _) ->
      expect (v = v10) "fold reads PR10's engine rate as %g, not %g" v v10;
      expect (Float.abs (ratio -. (v10 /. v9)) < 1e-12)
        "fold's PR9 -> PR10 engine ratio is %g, not %g / %g" ratio v10 v9
  | _ -> expect false "PR9/PR10 engine.events_per_sec missing from the fold");
  check_band ();
  check_calibration ();
  if !failures > 0 then exit 1;
  Printf.printf "trajectory: %d checked-in points well formed\n"
    (List.length files)
