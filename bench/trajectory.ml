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

let headlines =
  let hier replicas leaf =
    [ Key "hier"; Key "sizes"; Where ("replicas", replicas); Key leaf ]
  in
  [
    (engine_events_per_sec, Higher);
    ([ Key "mc_explore"; Key "schedules_per_sec" ], Higher);
    ( [ Key "explore_scaling"; Key "jobs"; Where ("jobs", 1.);
        Key "schedules_per_sec" ],
      Higher );
    (hier 256. "rounds_per_wall_sec", Higher);
    (hier 256. "formation_wall_s", Lower);
    (hier 1024. "rounds_per_wall_sec", Higher);
    (hier 1024. "formation_wall_s", Lower);
    ([ Key "lint_typed"; Key "units_per_sec" ], Higher);
    ([ Key "fig5"; Key "with_cts"; Key "mean_us" ], Lower);
  ]

(* The fold: each point's value at [steps] and its ratio to the latest
   earlier point that has one. *)
let series steps points =
  let step (prev, rows) (label, json) =
    let v = value steps json in
    let ratio =
      match (prev, v) with Some p, Some x -> Some (x /. p) | _ -> None
    in
    ((if Option.is_some v then v else prev), (label, v, ratio) :: rows)
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

(* The trajectory warning for one headline: [now] against the latest
   checked-in point [(label, p)] that has it.  Worse is measured like a
   spread — the fraction by which the run took longer per unit of work —
   and warned about only beyond the larger of the two runs' spreads. *)
let band ppf (steps, better) ~run ~now (label, p) =
  let before = Option.get (value steps p) in
  let worse =
    (match better with Higher -> before /. now | Lower -> now /. before) -. 1.
  in
  match (value (spread_of steps) run, value (spread_of steps) p) with
  | Some a, Some b ->
      let band = Float.max a b in
      Format.fprintf ppf "  band %.1f%%@." (100. *. band);
      if worse > band then
        Format.fprintf ppf
          "PERF WARNING (trajectory): %s is %.2fx of %s's, worse by %.1f%% \
           (band %.1f%%)@."
          (name steps) (now /. before) label (100. *. worse) (100. *. band)
  | _ -> Format.fprintf ppf "  no band@."

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
    Format.fprintf ppf "%7s%s@." ""
      (cells Fun.id (List.map (fun (label, _) -> Some label) cols));
    List.iter
      (fun ((steps, better) as headline) ->
        let rows = series steps cols in
        Format.fprintf ppf "%s (%s is better)@.  value%s@.  ratio%s" (name steps)
          (match better with Higher -> "higher" | Lower -> "lower")
          (cells (Printf.sprintf "%.4g") (List.map (fun (_, v, _) -> v) rows))
          (cells (Printf.sprintf "%.2fx") (List.map (fun (_, _, r) -> r) rows));
        let latest =
          List.find_opt
            (fun (_, p) -> Option.is_some (value steps p))
            (List.rev same)
        in
        match (value steps run, latest) with
        | Some now, Some point -> band ppf headline ~run ~now point
        | _ -> Format.fprintf ppf "@.")
      headlines
  end
