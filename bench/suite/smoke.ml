(* Correctness and determinism smoke test of the benchmark suite, at
   tiny sizes: every workload runs, prints every metric BENCHMARK.json
   declares with the declared unit, gives identical counts and simulated
   metrics on two runs with one seed, and the explore workload fails
   when the model checker's seeded bug is switched on. *)

open Benchsuite

let tiny =
  {
    Workloads.full with
    Workloads.rpc_chunk = 50;
    rpc_plain = 50;
    seq_rounds = 100;
    hier = (4, 4);
    failover = (4, 4);
    crashes = 4;
    explore_chunk = 100;
  }

(* chunks per workload: enough for two failovers in hier_failover *)
let chunks = function "hier_failover" -> 45 | "hier_576" -> 3 | _ -> 2

let failures = ref 0

let expect ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

let run ?(sizes = tiny) ~trace (w : Workloads.t) seed =
  snd
    (Meter.run ~trace
       (Meter.fixed (chunks w.Workloads.name))
       (fun ctx -> w.Workloads.run sizes ctx ~seed))

let bench = Json.read_file "../../BENCHMARK.json"

(* (name, unit, better) of one section of BENCHMARK.json *)
let declared section =
  match Json.member section bench with
  | Some (Json.Arr l) ->
      List.map
        (fun e ->
          match (Json.member "name" e, Json.member "unit" e, Json.member "better" e) with
          | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) -> (n, u, b)
          | _ -> failwith ("malformed entry in BENCHMARK.json " ^ section))
        l
  | _ -> failwith ("BENCHMARK.json has no " ^ section)

let check_declared (w : Workloads.t) r =
  let trace = r.Meter.traced in
  let decls = declared (if trace then "per_layer" else "end_to_end") in
  let printed = Format.asprintf "%a" Meter.pp_lines r in
  let lines = String.split_on_char '\n' printed in
  let json_names =
    match Json.member "metrics" (Meter.json_line r) with
    | Some (Json.Obj kv) -> List.map fst kv
    | _ -> []
  in
  expect
    (List.sort compare json_names
    = List.sort compare (List.map (fun (n, _, _) -> n) decls))
    "%s trace=%b: JSON line carries exactly the declared metrics"
    w.Workloads.name trace;
  List.iter
    (fun (name, unit_, better) ->
      let line_ok l =
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | [ "metric"; n; _; u ] -> n = name && u = unit_
        | _ -> false
      in
      expect (List.exists line_ok lines) "%s: %s printed with unit %s"
        w.Workloads.name name unit_;
      match Catalog.find name with
      | Some e ->
          expect
            (e.Catalog.unit_ = unit_
            && Catalog.better_of_string better = Some e.Catalog.better)
            "%s: unit and direction agree with the catalog" name
      | None -> expect false "%s is declared but not in the catalog" name)
    decls

let sim_values r =
  List.filter_map
    (fun ((e : Catalog.t), v) ->
      match e.Catalog.kind with
      | Catalog.Sim -> Some (e.Catalog.name, v)
      | Catalog.Sim_traced when r.Meter.traced -> Some (e.Catalog.name, v)
      | Catalog.Sim_traced | Catalog.Wall -> None)
    r.Meter.metrics

let () =
  let workloads =
    match Json.member "workloads" bench with
    | Some (Json.Arr l) ->
        List.map
          (fun w ->
            match (Json.member "name" w, Json.member "why" w) with
            | Some (Json.Str n), Some (Json.Str y) -> (n, y)
            | _ -> ("", ""))
          l
    | _ -> []
  in
  expect
    (workloads
    = List.map (fun w -> (w.Workloads.name, w.Workloads.why)) Workloads.all)
    "BENCHMARK.json declares the suite's workloads, in order, with their why";
  List.iter
    (fun (w : Workloads.t) ->
      let plain = run ~trace:false w 3 in
      let a = run ~trace:true w 3 and b = run ~trace:true w 3 in
      List.iter
        (fun r ->
          expect r.Meter.correct "%s correct (%s)" w.Workloads.name
            (String.concat "; " r.Meter.problems);
          expect (r.Meter.failed = 0 && r.Meter.attempted > 0)
            "%s: %d attempted, %d failed" w.Workloads.name r.Meter.attempted
            r.Meter.failed)
        [ plain; a ];
      check_declared w plain;
      check_declared w a;
      let differ x y =
        List.filter_map
          (fun (n, v) ->
            if List.assoc n (sim_values y) = v then None
            else Some (Printf.sprintf "%s %g vs %g" n v (List.assoc n (sim_values y))))
          (sim_values x)
      in
      let diffs = differ a b @ differ plain a in
      expect
        (a.Meter.attempted = b.Meter.attempted
        && a.Meter.failed = b.Meter.failed
        && plain.Meter.attempted = a.Meter.attempted
        && diffs = [])
        "%s: same seed, same counts and simulated metrics (%s)"
        w.Workloads.name (String.concat "; " diffs))
    Workloads.all;
  (* The model checker's seeded reordering bug must surface as failures. *)
  let buggy =
    {
      tiny with
      Workloads.harness =
        {
          Mc.Harness.default with
          Mc.Harness.rounds = 8;
          think_us = 60;
          straggle_us = 80;
          jitter_us = 5;
          latency_us = 20;
          bug = Some Mc.Harness.Ignore_buffered_winner;
        };
    }
  in
  (match Workloads.find "explore" with
  | Some w ->
      let r = run ~sizes:buggy ~trace:false w 1 in
      expect (r.Meter.failed > 0 && not r.Meter.correct)
        "explore with the seeded bug fails (%d of %d schedules failed)"
        r.Meter.failed r.Meter.attempted
  | None -> expect false "explore workload exists");
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "ctsbench smoke: all checks passed"
