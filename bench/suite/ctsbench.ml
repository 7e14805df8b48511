(* ctsbench: one workload run per process, or a comparison of two sets
   of runs.

     ctsbench --workload NAME --seed N [--seconds S] [--trace 0|1] [--out DIR]
     ctsbench compare A/ B/ [--bench BENCHMARK.json]

   A run measures for run_seconds of ./BENCHMARK.json; --seconds is the
   command-line form BENCHMARK.json's command is called with, and must
   repeat that value.  A run prints every metric by name with its unit,
   then one JSON line {correct, attempted, failed, metrics}; it also
   writes that run's result file (and, traced, its span file) under
   --out.  It exits 1 when a correctness check fails.  See README.md. *)

open Benchsuite

let usage =
  "usage: ctsbench --workload NAME --seed N [--seconds S] [--trace 0|1] \
   [--out DIR]\n\
  \       ctsbench compare A/ B/ [--bench BENCHMARK.json]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)

let die msg =
  prerr_endline msg;
  prerr_endline usage;
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The one run length, BENCHMARK.json's run_seconds. *)
let run_seconds () =
  let bench = "BENCHMARK.json" in
  match Json.member "run_seconds" (Json.read_file bench) with
  | Some (Json.Num s) when s > 0. -> s
  | _ -> die (bench ^ " has no positive run_seconds")
  | exception (Sys_error msg | Json.Parse_error msg) ->
      die (Printf.sprintf "cannot read %s (run from the repository root): %s" bench msg)

let run_mode args =
  let workload = ref "" and seed = ref None and given_seconds = ref None in
  let trace = ref 0 and out = ref (Filename.concat "bench" (Filename.concat "suite" "out")) in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N seed of every input");
      ( "--seconds",
        Arg.Float (fun s -> given_seconds := Some s),
        "S wall seconds to measure; must equal run_seconds in BENCHMARK.json" );
      ("--trace", Arg.Set_int trace, "0|1 1 = traced run, per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where result and span files go");
    ]
  in
  (try
     Arg.parse_argv ~current:(ref 0) args spec
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg -> die msg);
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
  in
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let seconds = run_seconds () in
  (match !given_seconds with
  | Some s when s <> seconds ->
      die
        (Printf.sprintf "--seconds %g differs from run_seconds %g in BENCHMARK.json"
           s seconds)
  | Some _ | None -> ());
  let traced = !trace = 1 in
  Format.printf "ctsbench %s seed=%d seconds=%g trace=%d@." w.Workloads.name seed
    seconds !trace;
  let ctx, r =
    Meter.run ~trace:traced (Meter.timed seconds) (fun ctx ->
        Spans.within ctx.Meter.spans ~sub:Obs.Subsystem.Scenario
          ("workload " ^ w.Workloads.name) (fun () ->
            w.Workloads.run Workloads.full ctx ~seed))
  in
  mkdir_p !out;
  let stem = Printf.sprintf "%s-seed%d-trace%d" w.Workloads.name seed !trace in
  let r =
    if not traced then r
    else begin
      let path = Filename.concat !out (stem ^ ".spans.json") in
      Spans.write ctx.Meter.spans path;
      match Obs.Trace.validate_file path with
      | Ok _ ->
          Format.printf "spans: %d event(s) written to %s@."
            (Spans.count ctx.Meter.spans) path;
          r
      | Error e -> Meter.add_problem r ("span file invalid: " ^ e)
    end
  in
  Meter.pp_lines Format.std_formatter r;
  Out_channel.with_open_bin
    (Filename.concat !out (stem ^ ".json"))
    (fun oc ->
      output_string oc
        (Json.to_string (Meter.record ~workload:w.Workloads.name ~seed ~seconds r));
      output_char oc '\n');
  print_endline (Json.to_string (Meter.json_line r));
  exit (if r.Meter.correct then 0 else 1)

let compare_mode args =
  let bench = ref "BENCHMARK.json" and dirs = ref [] in
  (try
     Arg.parse_argv ~current:(ref 0) args
       [ ("--bench", Arg.Set_string bench, "FILE metric declarations") ]
       (fun d -> dirs := !dirs @ [ d ])
       usage
   with Arg.Bad msg | Arg.Help msg -> die msg);
  match !dirs with
  | [ a; b ] -> exit (Compare.run ~bench:!bench a b)
  | _ -> die "compare takes two result directories"

let () =
  let argv = Sys.argv in
  if Array.length argv > 1 && argv.(1) = "compare" then
    compare_mode (Array.append [| "ctsbench compare" |] (Array.sub argv 2 (Array.length argv - 2)))
  else run_mode argv
