(* The checked-in benchmark trajectory.  Every BENCH_PR<N>.json at the
   source root is one point, labelled by the N in its file name; a bench
   run is checked in by renaming its BENCH_run.json.  [report] prints a
   fixed set of headline metrics across the points that share this
   run's scale and the run itself, so no cross-PR number is ever copied
   into the bench by hand. *)

module Json = Benchsuite.Json

let rec find_root dir =
  if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
  else
    let parent = Filename.dirname dir in
    if String.equal parent dir then None else find_root parent

(* (N, path) of every point under [root], by ascending N. *)
let files root =
  Sys.readdir root |> Array.to_list
  |> List.filter_map (fun f ->
         Scanf.sscanf_opt f "BENCH_PR%u.json%!" (fun n ->
             (n, Filename.concat root f)))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let read path =
  try Json.read_file path
  with Json.Parse_error msg -> failwith (Printf.sprintf "%s: %s" path msg)

(* ("PR<N>", contents) of every point under [root], by ascending N. *)
let load root =
  List.map (fun (n, path) -> (Printf.sprintf "PR%d" n, read path)) (files root)

(* ------------------------------------------------------------------ *)
(* Paths into a point                                                  *)

type step =
  | Key of string
  | Where of string * float  (** the array element whose member is this number *)

let rec value steps json =
  match (steps, json) with
  | [], Json.Num f -> Some f
  | Key k :: rest, _ -> Option.bind (Json.member k json) (value rest)
  | Where (k, v) :: rest, Json.Arr items ->
      Option.bind
        (List.find_opt (fun i -> Json.member k i = Some (Json.Num v)) items)
        (value rest)
  | _ -> None

let name steps =
  String.concat ""
    (List.mapi
       (fun i -> function
         | Key k -> if i = 0 then k else "." ^ k
         | Where (k, v) -> Printf.sprintf "[%s=%g]" k v)
       steps)

(* A best-of-N rate's noise band sits next to it as "<leaf>_spread". *)
let spread_of steps =
  match List.rev steps with
  | Key k :: rest -> List.rev (Key (k ^ "_spread") :: rest)
  | _ -> steps

type better = Higher | Lower

let engine_events_per_sec = [ Key "engine"; Key "events_per_sec" ]

(* The host's reference kernel: the bare engine timer loop, best of 5
   with its spread, which bench/main.exe records in every point.  Its
   ratio between two points is how much faster the host ran, not the
   code. *)
let kernel = [ Key "calibration"; Key "kernel_events_per_sec" ]

(* A headline is [calibrated] when its value is wall-clock time on the
   host.  Two are judged raw: fig5's latency is simulated, and the engine
   rate times the kernel's own loop, so calibrating it would hide an
   engine regression. *)
type headline = { steps : step list; better : better; calibrated : bool }

let headlines =
  let h ?(calibrated = true) better steps = { steps; better; calibrated } in
  let hier replicas leaf =
    [ Key "hier"; Key "sizes"; Where ("replicas", replicas); Key leaf ]
  in
  [
    h ~calibrated:false Higher engine_events_per_sec;
    h Higher [ Key "mc_explore"; Key "schedules_per_sec" ];
    h Higher
      [ Key "explore_scaling"; Key "jobs"; Where ("jobs", 1.);
        Key "schedules_per_sec" ];
    h Higher (hier 256. "rounds_per_wall_sec");
    h Lower (hier 256. "formation_wall_s");
    h Higher (hier 1024. "rounds_per_wall_sec");
    h Lower (hier 1024. "formation_wall_s");
    h Higher [ Key "lint_typed"; Key "units_per_sec" ];
    h ~calibrated:false Lower [ Key "fig5"; Key "with_cts"; Key "mean_us" ];
  ]

(* How much faster the host ran at [b] than at [a], when both points
   carry the kernel. *)
let host_speedup a b =
  match (value kernel a, value kernel b) with
  | Some ka, Some kb -> Some (kb /. ka)
  | _ -> None

(* A [better] metric's ratio with the host's speed-up [h] taken out. *)
let calibrate better ratio h =
  match better with Higher -> ratio /. h | Lower -> ratio *. h

(* Worse is measured like a spread: the fraction by which the run took
   longer per unit of work. *)
let worse better ratio =
  (match better with Higher -> 1. /. ratio | Lower -> ratio) -. 1.

(* The fold: each point's value at [steps], its ratio to the latest
   earlier point that has one, and the host speed-up between the two. *)
let series steps points =
  let step (prev, rows) (label, json) =
    let v = value steps json in
    let row =
      match (prev, v) with
      | Some (p, pjson), Some x -> (label, v, Some (x /. p), host_speedup pjson json)
      | _ -> (label, v, None, None)
    in
    ((match v with Some x -> Some (x, json) | None -> prev), row :: rows)
  in
  List.rev (snd (List.fold_left step (None, []) points))

(* ------------------------------------------------------------------ *)
(* The report                                                          *)

let width = 10

(* One right-aligned column; "—" is one glyph but three bytes. *)
let cells fmt xs =
  String.concat ""
    (List.map
       (function
         | Some x -> Printf.sprintf "%*s" width (fmt x)
         | None -> String.make (width - 1) ' ' ^ "\u{2014}")
       xs)

(* The larger of two points' spreads at [steps], when both have one. *)
let band_of steps a b =
  match (value (spread_of steps) a, value (spread_of steps) b) with
  | Some x, Some y -> Some (Float.max x y)
  | _ -> None

(* The trajectory warning for one headline: [now] against the latest
   checked-in point [(label, p)] that has it, warned about only beyond
   the larger of the two runs' spreads.  When the two points' kernels
   differ beyond their own spreads, the host changed speed, and a
   calibrated headline is judged on its calibrated ratio alone, within
   its band plus the kernel's. *)
let band ppf { steps; better; calibrated } ~run ~now (label, p) =
  let raw = now /. Option.get (value steps p) in
  let kband = Option.value ~default:0. (band_of kernel run p) in
  let judged, extra =
    match host_speedup p run with
    | Some h when calibrated && Float.max h (1. /. h) -. 1. > kband ->
        (Some h, kband)
    | _ -> (None, 0.)
  in
  let ratio = Option.fold ~none:raw ~some:(calibrate better raw) judged in
  match band_of steps run p with
  | Some b ->
      let band = b +. extra in
      let kind = if Option.is_some judged then "calibrated" else "raw" in
      Format.fprintf ppf "  band %.1f%%, %s ratio judged@." (100. *. band) kind;
      if worse better ratio > band then
        Format.fprintf ppf
          "PERF WARNING (trajectory): %s is %.2fx (%s) of %s's, worse by \
           %.1f%% (band %.1f%%)@."
          (name steps) ratio kind label
          (100. *. worse better ratio)
          (100. *. band)
  | None -> Format.fprintf ppf "  no band@."

let report ppf ~run points =
  let scale = Json.member "scale" run in
  let same = List.filter (fun (_, p) -> Json.member "scale" p = scale) points in
  if same = [] then
    Format.fprintf ppf
      "no checked-in BENCH_PR<N>.json has this run's scale (%s); nothing to \
       compare@."
      (Option.fold ~none:"none" ~some:Json.to_string scale)
  else begin
    let cols = same @ [ ("run", run) ] in
    let rows steps =
      let rows = series steps cols in
      Format.fprintf ppf "  value%s@.  ratio%s@."
        (cells (Printf.sprintf "%.4g") (List.map (fun (_, v, _, _) -> v) rows))
        (cells (Printf.sprintf "%.2fx") (List.map (fun (_, _, r, _) -> r) rows));
      rows
    in
    Format.fprintf ppf "%7s%s@." ""
      (cells Fun.id (List.map (fun (label, _) -> Some label) cols));
    Format.fprintf ppf "%s (host reference kernel; not judged)@." (name kernel);
    ignore (rows kernel);
    List.iter
      (fun ({ steps; better; calibrated } as headline) ->
        Format.fprintf ppf "%s (%s is better)@." (name steps)
          (match better with Higher -> "higher" | Lower -> "lower");
        let rows = rows steps in
        if calibrated then
          Format.fprintf ppf "   cal.%s@."
            (cells (Printf.sprintf "%.2fx")
               (List.map
                  (fun (_, _, r, h) ->
                    match (r, h) with
                    | Some r, Some h -> Some (calibrate better r h)
                    | _ -> None)
                  rows));
        let latest =
          List.find_opt
            (fun (_, p) -> Option.is_some (value steps p))
            (List.rev same)
        in
        match (value steps run, latest) with
        | Some now, Some point -> band ppf headline ~run ~now point
        | _ -> ())
      headlines
  end
