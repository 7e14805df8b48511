(* Timing gates: the three wall-clock bounds that no other tool judges.
   Each prints a "PERF WARNING (<tier>)" marker on a breach, which CI
   turns into a hard failure:

   - obs: the compiled-in probes cost engine throughput with the record
     stream on, or stream-off throughput fell below BENCH_PR3.json's;
   - explore-scaling: 4 explorer domains finish behind 1 on a host with
     at least 4 cores;
   - scale: 256-replica formation misses its budget.

   The paper's evaluation is `ctsim experiments`; perf comparisons
   between two commits are `ctsbench compare` (bench/suite/README.md).

   Run with: dune exec bench/main.exe
   Scale the workloads down for a quick pass with CTS_BENCH_SCALE=0.1. *)

[@@@ctslint.allow
"wall-clock"
  "benchmarks measure real elapsed time by definition; nothing here feeds \
   back into simulated state"]

module J = Benchsuite.Json

let scale =
  match Sys.getenv_opt "CTS_BENCH_SCALE" with
  | Some s -> (
      match float_of_string_opt s with Some f -> max 0.001 f | None -> 1.)
  | None -> 1.

let scaled n = max 20 (int_of_float (float_of_int n *. scale))
let ppf = Format.std_formatter
let section name = Format.fprintf ppf "@.==== %s ====@.@." name

(* Every timed number is the best of [passes] runs: background load on
   the host slows single runs by 15%+ and never speeds one up, so the
   fastest run estimates what the machine sustains.  [f] returns the
   seconds its own meter covered and a payload; the result is the
   fastest run's payload and seconds, and the spread median/best - 1 of
   the seconds. *)
let passes = 5

let best runs =
  let runs = List.sort (fun (a, _) (b, _) -> Float.compare a b) runs in
  let dt, x = List.hd runs in
  (x, dt, (fst (List.nth runs (List.length runs / 2)) /. dt) -. 1.)

let best_of f = best (List.init passes (fun _ -> f ()))

(* Nearest-rank quantile: of 5 values, q = 0.25 / 0.5 / 0.75 pick the
   2nd / 3rd / 4th smallest. *)
let quantile q xs =
  List.nth (List.sort Float.compare xs)
    (int_of_float (Float.round (q *. float_of_int (List.length xs - 1))))

let timed f =
  let t0 = Mc.Explore.wall () in
  let x = f () in
  (Mc.Explore.wall () -. t0, x)

(* engine.events_per_sec of the checked-in BENCH_PR3.json at the source
   root (the first directory up from here holding dune-project); None
   when the bench runs away from its sources. *)
let pr3_events_per_sec =
  let rec find_root dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else find_root parent
  in
  Option.bind (find_root (Sys.getcwd ())) (fun root ->
      match J.read_file (Filename.concat root "BENCH_PR3.json") with
      | json -> (
          match
            Option.bind (J.member "engine" json) (J.member "events_per_sec")
          with
          | Some (J.Num f) -> Some f
          | _ -> None)
      | exception (Sys_error _ | J.Parse_error _) -> None)

(* OBS: the observability stream's perf guard on the raw engine loop —
   timer events through the unboxed queue, no protocol on top, the
   denominator every simulation pays.  Probes are compiled into every
   hot path and report through one gate, so the loop runs with the
   stream off (nothing attached — the default) and on with a recorder
   and [steps] set (one record per fired engine event, the worst case;
   real runs only record protocol-level events).  [n] wraps the ring
   dozens of times, so the steady-state wrap path is what gets
   measured.  Both run under the engine's GC tuning, as the explorer
   does; that neither pass allocates per event is tier-1
   (test_lint_typed's "cross-check: engine + queue").  The off and on
   passes run as [passes] interleaved pairs, alternating which side
   goes first, so a stretch of host load slows both sides of a pair
   alike; the on/off ratio is the median of the per-pair ratios,
   printed with their quartiles.  The bars: stream off (fastest pass)
   within 5% of BENCH_PR3.json's engine throughput (20% on scaled-down
   runs, whose short passes sit inside the box's load noise); median
   pair ratio on/off >= 0.95 (0.90 scaled). *)
let bench_obs () =
  section "OBS: engine event throughput, probe stream off vs on";
  let n = scaled 2_000_000 in
  Dsim.Engine.with_gc_tuning (fun () ->
      let batch = 10_000 in
      let one_pass sink () =
        let eng = Dsim.Engine.create () in
        Option.iter (Dsim.Engine.set_obs eng) sink;
        (* Warm outside the meter: engine construction and the queue's
           first growth to batch size are one-time costs, not per-event
           costs.  Scheduling itself stays inside the timed region; it
           is half the per-event work being measured. *)
        for i = 1 to batch do
          Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
        done;
        Dsim.Engine.run eng;
        timed (fun () ->
            let done_ = ref 0 in
            while !done_ < n do
              let k = min batch (n - !done_) in
              for i = 1 to k do
                Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
              done;
              Dsim.Engine.run eng;
              done_ := !done_ + k
            done)
      in
      let sink = Obs.Sink.create () in
      Obs.Sink.set_recorder sink (Some (Obs.Recorder.create ()));
      Obs.Sink.set_steps sink true;
      let pairs =
        List.init passes (fun i ->
            if i mod 2 = 0 then
              let off = one_pass None () in
              (off, one_pass (Some sink) ())
            else
              let on = one_pass (Some sink) () in
              (one_pass None (), on))
      in
      let (), dt_off, spread_off = best (List.map fst pairs) in
      let (), dt_on, spread_on = best (List.map snd pairs) in
      let per_sec_off = float_of_int n /. dt_off in
      let per_sec_on = float_of_int n /. dt_on in
      (* events/s on over events/s off = seconds off over seconds on *)
      let ratios = List.map (fun ((off, ()), (on, ())) -> off /. on) pairs in
      let ratio = quantile 0.5 ratios in
      Format.fprintf ppf
        "(%d timer events per pass, %d interleaved off/on pairs; rates are \
         the fastest pass)@."
        n passes;
      Format.fprintf ppf "stream off: %.2e events/s (spread %.1f%%)@."
        per_sec_off (100. *. spread_off);
      Format.fprintf ppf
        "stream on:  %.2e events/s (spread %.1f%%) — %.2fx of stream off \
         (median pair; quartiles %.2fx-%.2fx)@."
        per_sec_on (100. *. spread_on) ratio (quantile 0.25 ratios)
        (quantile 0.75 ratios);
      let warn fmt = Format.fprintf ppf ("PERF WARNING (obs): " ^^ fmt ^^ "@.") in
      let off_tolerance = if scale >= 1. then 0.95 else 0.80 in
      (match pr3_events_per_sec with
      | None ->
          warn
            "no engine.events_per_sec in a BENCH_PR3.json under the source \
             root; the stream-off floor cannot be checked"
      | Some floor ->
          if per_sec_off /. floor < off_tolerance then
            warn
              "stream-off engine throughput is %.2e events/s, more than \
               %.0f%% below PR-3's %.2e"
              per_sec_off
              (100. *. (1. -. off_tolerance))
              floor);
      let on_tolerance = if scale >= 1. then 0.95 else 0.90 in
      if ratio < on_tolerance then
        warn
          "stream-on throughput is %.2fx of stream off in the median pair \
           (must be >= %.2f)"
          ratio on_tolerance)

(* Multicore exploration scaling: the same random-walk exploration
   ([ctsim explore --strategy random]) at 1/2/4/8 worker domains. *)
let bench_mc_scaling () =
  section "MC3: multicore schedule exploration scaling (Mc.Explore ~jobs)";
  let budget = scaled 2_000 in
  let cfg = { Mc.Harness.default with Mc.Harness.rounds = 12 } in
  Format.fprintf ppf
    "(%d schedules per run, 12 rounds, random walk; available cores: %d; \
     each row best of %d runs)@.@."
    budget
    (Domain.recommended_domain_count ())
    passes;
  Format.fprintf ppf "%-8s %-12s %-8s %-10s %-10s %s@." "jobs" "schedules/s"
    "spread" "wall (s)" "cpu (s)" "speedup vs 1 domain";
  (* discarded warmup: page in the code and let the first run's
     one-time promotions happen outside the measured rows *)
  ignore (Mc.Explore.explore ~budget:(scaled 200) ~jobs:1 cfg);
  (* The exploration result is deterministic — identical across a row's
     runs — so only the timing varies. *)
  let row jobs =
    let r, _, spread =
      best_of (fun () ->
          (* same heap state for every run (and as a standalone run) *)
          Gc.compact ();
          let r = Mc.Explore.explore ~budget ~jobs cfg in
          (r.Mc.Explore.elapsed_s, r))
    in
    (jobs, Mc.Explore.schedules_per_sec r, spread, r.Mc.Explore.elapsed_s,
     r.Mc.Explore.cpu_s)
  in
  let rows = List.map row [ 1; 2; 4; 8 ] in
  let base = match rows with (_, s, _, _, _) :: _ -> s | [] -> nan in
  List.iter
    (fun (jobs, sps, spread, wall, cpu) ->
      Format.fprintf ppf "%-8d %-12.1f %-8s %-10.2f %-10.2f %.2fx@." jobs sps
        (Printf.sprintf "%.1f%%" (100. *. spread))
        wall cpu (sps /. base))
    rows;
  let speedup4 =
    match List.find_opt (fun (j, _, _, _, _) -> j = 4) rows with
    | Some (_, s, _, _, _) -> s /. base
    | None -> nan
  in
  let cores = Domain.recommended_domain_count () in
  (* Scaling guard: on a host that actually has the cores, four domains
     finishing behind one means the work-stealing frontier is losing to
     its own coordination, a regression the explorer once had.  On
     smaller hosts the 4-domain row measures oversubscription, not
     scaling, so the guard stays informational. *)
  if cores >= 4 && speedup4 < 1.0 then
    Format.fprintf ppf
      "PERF WARNING (explore-scaling): speedup_4_over_1 is %.2fx (< 1.0) \
       with %d cores available@."
      speedup4 cores
  else if speedup4 < 1.0 then
    Format.fprintf ppf
      "note: speedup_4_over_1 is %.2fx on a %d-core host — \
       oversubscribed, not a scaling signal@."
      speedup4 cores

(* The 256-replica formation budget guards the removal of formation's
   superlinear cost, which once spent 2.6 s forming 16x16 rings and
   238 s at 32x32; event-driven formation measures well under 0.2 s at
   256, so 1 s of headroom still catches any return of the superlinear
   term while tolerating a loaded CI box.  The world is the one test_hier's
   "scaling bound" judges at 16x16: seed 11, every shard's clocks skewed
   1 ms per shard index. *)
let bench_formation () =
  section "SCALE: 256-replica formation budget (lib/hier)";
  let module CH = Scenario.Cluster_hier in
  let shards = 16 and shard_size = 16 and form_budget_s = 1.0 in
  let topo = Hier.Topology.create ~shards ~shard_size in
  let clock_config i =
    {
      Clock.Hwclock.default_config with
      offset =
        Dsim.Time.Span.of_ms
          (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
    }
  in
  let t = CH.create ~seed:11L ~clock_config ~shards ~shard_size () in
  let form_s, () = timed (fun () -> CH.start_all t) in
  Format.fprintf ppf "256-replica formation: %.2f s (budget %.1f s)@." form_s
    form_budget_s;
  if form_s > form_budget_s then
    Format.fprintf ppf
      "PERF WARNING (scale): 256-replica formation took %.2f s, over the \
       %.1f s budget (the superlinear term is back)@."
      form_s form_budget_s

let () =
  Format.fprintf ppf "Consistent Time Service timing gates (scale=%.3g)@."
    scale;
  bench_obs ();
  bench_mc_scaling ();
  bench_formation ();
  Format.fprintf ppf "@.done.@."
