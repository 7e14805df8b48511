module Span = Dsim.Time.Span

type violation = {
  invariant : string;
  detail : string;
  seed : int64;
  counterexample : Schedule.t;
  original_deviations : int;
  shrink_runs : int;
  packet_log : string;
  blackbox : string;
}

type report = {
  strategy : string;
  invariants : string list;
  budget : int;
  jobs : int;
  schedules : int;
  distinct : int;
  steps_total : int;
  elapsed_s : float;
  cpu_s : float;
  violations : violation list;
}

(* Monotonic wall clock.  [Sys.time] is process CPU time: it over-reports
   on a loaded machine and, with several domains running, advances [jobs]
   times faster than the wall — useless as a throughput denominator.  We
   report both: wall time for schedules/sec, CPU time for efficiency. *)
let wall () =
  Int64.to_float (Monotonic_clock.now ()) /. 1e9
[@@ctslint.allow
  "wall-clock"
    "this wrapper IS the explorer's declared clock boundary; elapsed_s is \
     a report field for the operator and never feeds back into \
     exploration, schedules, or the merge"]

let cpu () =
  Sys.time ()
[@@ctslint.allow
  "wall-clock"
    "this wrapper IS the explorer's declared CPU-time boundary; cpu_s is \
     a report field for the operator and never feeds back into \
     exploration, schedules, or the merge"]

let schedules_per_sec r =
  if r.elapsed_s <= 0. then 0.
  else float_of_int r.schedules /. r.elapsed_s

module Make (R : World.RUN) = struct
  (* Reproduce a violating run deterministically from its applied deviation
     trace, delta-debug the trace down, and re-run the minimal schedule once
     more with packet recording on.  Pure sequential — [explore] funnels
     every violation through here on the calling domain, in schedule order,
     so reports are independent of domain count. *)
  let build_violation ~quantum cfg ~seed ~first_invariant ~deviations =
    let fails sched =
      let spec = Controller.replay_spec ~quantum sched in
      let outcome, _ = R.run ~spec (R.prepare ~seed ~packets:false cfg) in
      Invariant.check_all outcome <> []
    in
    let counterexample, shrink_runs =
      if fails deviations then Shrink.minimize ~fails deviations
      else (deviations, 0)
    in
    (* The confirming re-run carries the flight recorder beside the
       world's check, so every shrunk counterexample ships its own black
       box, verdicts included: the dumped window travels in the report and
       feeds [ctsim postmortem] directly.  The default window holds a whole
       replay of either world at its default size. *)
    let recorder = Obs.Recorder.create () in
    let bb_sink = Obs.Sink.create () in
    Obs.Sink.set_recorder bb_sink (Some recorder);
    let final_outcome, _ =
      R.run
        ~spec:(Controller.replay_spec ~quantum counterexample)
        (R.prepare ~sink:bb_sink ~seed ~packets:true cfg)
    in
    let verdicts = Invariant.check_all final_outcome in
    let invariant, detail =
      match verdicts with
      | v :: _ ->
          ( v.Obs.Check.inv,
            Printf.sprintf "worst %d at node %d, first at %d us (record %d)"
              v.worst v.node v.first_us v.at )
      | [] -> (first_invariant, "not reproducible after shrinking")
    in
    {
      invariant;
      detail;
      seed;
      counterexample;
      original_deviations = Schedule.length deviations;
      shrink_runs;
      packet_log = final_outcome.Invariant.packet_log;
      blackbox = Obs.Postmortem.dump_string recorder verdicts;
    }

  let explore ?(strategy = Strategy.default_random) ?(budget = 500)
      ?(quantum_us = 200) ?(stop_at_first = true) ?(jobs = 1) cfg =
    if jobs < 1 then invalid_arg "Mc.Explore.explore: jobs must be >= 1";
    let quantum = Span.of_us quantum_us in
    let t0 = wall () in
    let c0 = cpu () in
    let run () =
      Pool.run (module R) ~jobs ~stop_at_first ~quantum strategy cfg budget
    in
    (* With several domains every minor collection stops them all, so the
       larger minor heap sized for the harness pays; it is set from the
       calling domain (workers inherit it) and restored afterwards.  One
       domain runs as fast on the default heap, and a short exploration
       would only pay for reallocating it. *)
    let executed =
      if jobs > 1 then Dsim.Engine.with_gc_tuning run else run ()
    in
    (* Everything below reads the prefix that ends at the first violating
       schedule (or the whole run when clean or [not stop_at_first]), so
       the report does not depend on how far past it other domains raced;
       every slot of that prefix is filled. *)
    let cutoff =
      let rec first_violation i =
        if i = Array.length executed then i - 1
        else
          match executed.(i) with
          | Some { Pool.violated = Some _; _ } when stop_at_first -> i
          | _ -> first_violation (i + 1)
      in
      first_violation 0
    in
    let seen = Hashtbl.create 1024 in
    let steps_total = ref 0 in
    let violations = ref [] in
    for i = 0 to cutoff do
      let r = Option.get executed.(i) in
      steps_total := !steps_total + r.Pool.steps;
      Hashtbl.replace seen r.Pool.fingerprint ();
      Option.iter
        (fun (first_invariant, deviations) ->
          violations :=
            build_violation ~quantum cfg ~seed:r.Pool.seed ~first_invariant
              ~deviations
            :: !violations)
        r.Pool.violated
    done;
    {
      strategy = Format.asprintf "%a" Strategy.pp strategy;
      invariants = R.properties;
      budget;
      jobs;
      schedules = cutoff + 1;
      distinct = Hashtbl.length seen;
      steps_total = !steps_total;
      elapsed_s = wall () -. t0;
      cpu_s = cpu () -. c0;
      violations = List.rev !violations;
    }
end

include Make (Harness)

let pp_violation ppf v =
  Format.fprintf ppf
    "@[<v>VIOLATION of %s (seed %Ld): %s@,\
     found with %d deviation(s); shrunk to %d in %d re-run(s)@,\
     minimal counterexample: %a@]"
    v.invariant v.seed v.detail v.original_deviations
    (Schedule.length v.counterexample)
    v.shrink_runs Schedule.pp v.counterexample;
  if v.packet_log <> "" then
    Format.fprintf ppf "@,@[<v>packet log (last %d events):@,%s@]"
      (List.length (String.split_on_char '\n' v.packet_log) - 1)
      v.packet_log;
  if v.blackbox <> "" then
    Format.fprintf ppf
      "@,flight window: %d line(s) attached (`ctsim explore` flushes it; \
       read with `ctsim postmortem`)"
      (List.length (String.split_on_char '\n' v.blackbox) - 1)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>strategy:           %s@," r.strategy;
  Format.fprintf ppf "schedules explored: %d (budget %d)@," r.schedules
    r.budget;
  if r.jobs > 1 then Format.fprintf ppf "worker domains:     %d@," r.jobs;
  Format.fprintf ppf "distinct schedules: %d@," r.distinct;
  Format.fprintf ppf "events stepped:     %d@," r.steps_total;
  Format.fprintf ppf
    "elapsed:            %.2f s wall, %.2f s cpu (%.1f schedules/s)@,"
    r.elapsed_s r.cpu_s (schedules_per_sec r);
  Format.fprintf ppf "invariants:         %s@,"
    (String.concat ", " r.invariants);
  (match r.violations with
  | [] -> Format.fprintf ppf "violations:         none@]"
  | vs ->
      Format.fprintf ppf "violations:         %d@," (List.length vs);
      Format.pp_print_list pp_violation ppf vs;
      Format.fprintf ppf "@]")
