(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md's experiment index), runs Bechamel
   micro-benchmarks of the building blocks, and writes this run's
   numbers to BENCH_run.json.  A run becomes a point of the checked-in
   trajectory when that file is renamed to BENCH_PR<N>.json; the run
   ends by printing its headline metrics next to every checked-in point
   of the same scale (bench/trajectory.ml).

   The sections that guard an invariant print a "PERF WARNING (<tier>)"
   marker that CI turns into a hard failure: MC1 (explore) when the
   explorer's world restore falls back to fresh construction, MC2/OBS
   (obs) when the compiled-in probes allocate or cost throughput with
   the record stream off or on, MC3 (explore-scaling) when 4 explorer
   domains lose to 1 on a host with 4 cores, HIER1 (hier, scale) when
   the hierarchical service misses its skew bound or 256-replica
   formation its budget, and LINT2 (lint) when ctslint reports a finding
   or the hot path loses its zero-alloc certificate.  SCALE1 attributes
   the largest HIER1 point's wall time to (subsystem, probe) sites.

   Run with: dune exec bench/main.exe
   Scale the workloads down for a quick pass with CTS_BENCH_SCALE=0.01. *)

[@@@ctslint.allow
"wall-clock"
  "benchmarks measure real elapsed time by definition; nothing here feeds \
   back into simulated state"]

module E = Scenario.Experiments
module R = Scenario.Report

let scale =
  match Sys.getenv_opt "CTS_BENCH_SCALE" with
  | Some s -> (
      match float_of_string_opt s with Some f -> max 0.001 f | None -> 1.)
  | None -> 1.

let scaled n = max 20 (int_of_float (float_of_int n *. scale))
let ppf = Format.std_formatter
let section name = Format.fprintf ppf "@.==== %s ====@.@." name

(* The source tree (for the lint section and the checked-in trajectory
   points); None when the bench runs away from its sources. *)
let root = Trajectory.find_root (Sys.getcwd ())
let tree = [ "lib"; "bin"; "bench"; "test"; "examples" ]
let points = Option.fold ~none:[] ~some:Trajectory.load root

(* Every timed number is the best of [passes] runs: background load on
   the host slows single runs by 15%+ and never speeds one up, so the
   fastest run estimates what the machine sustains.  [f] returns the
   seconds its own meter covered and a payload; the result is the
   fastest run's payload and seconds, and the spread median/best - 1 of
   the seconds — the noise band the trajectory report compares with. *)
let passes = 5

let best runs =
  let runs = List.sort (fun (a, _) (b, _) -> Float.compare a b) runs in
  let dt, x = List.hd runs in
  (x, dt, (fst (List.nth runs (List.length runs / 2)) /. dt) -. 1.)

let best_of f = best (List.init passes (fun _ -> f ()))

let median xs = List.nth (List.sort Float.compare xs) (List.length xs / 2)

let timed f =
  let t0 = Mc.Explore.wall () in
  let x = f () in
  (Mc.Explore.wall () -. t0, x)

(* ------------------------------------------------------------------ *)
(* This run's point: every section below contributes a flat association
   of JSON fragments. *)

let json_fields : (string * string) list ref = ref []
let json_add name fragment = json_fields := (name, fragment) :: !json_fields
let json_path = "BENCH_run.json"

let emit_json () =
  let fields =
    [
      ("scale", Printf.sprintf "%g" scale);
      ("cores_available", string_of_int (Domain.recommended_domain_count ()));
    ]
    @ List.rev !json_fields
  in
  let text =
    "{\n"
    ^ String.concat ",\n"
        (List.map (fun (name, frag) -> Printf.sprintf "  %S: %s" name frag) fields)
    ^ "\n}\n"
  in
  Out_channel.with_open_bin json_path (fun oc -> output_string oc text);
  Format.fprintf ppf "@.this run's point written to %s@." json_path;
  Benchsuite.Json.parse text

(* ------------------------------------------------------------------ *)

(* The host's reference kernel, measured first: the bare engine timer
   loop (ctsbench's dsim.bare_ns_per_event), best of [passes].  The
   trajectory takes its ratio between two points out of their wall-clock
   headlines, so a slower host does not read as slower code. *)
let bench_calibration () =
  let n = 200_000 and batch = 10_000 in
  let (), dt, spread =
    best_of (fun () ->
        let eng = Dsim.Engine.create () in
        timed (fun () ->
            for _ = 1 to n / batch do
              for i = 1 to batch do
                Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
              done;
              Dsim.Engine.run eng
            done))
  in
  Format.fprintf ppf
    "host reference kernel: %.2e engine timer events/s (best of %d, spread \
     %.1f%%)@."
    (float_of_int n /. dt) passes (100. *. spread);
  json_add "calibration"
    (Printf.sprintf
       "{\"kernel\": \"engine timer loop\", \"events\": %d, \
        \"kernel_events_per_sec\": %.0f, \"kernel_events_per_sec_spread\": %.3f}"
       n (float_of_int n /. dt) spread)

let bench_fig4 () =
  section "E1 / Figure 4: worked example of the CCS algorithm";
  R.fig4 ppf (E.fig4 ())

let bench_token () =
  section "M1: token-passing-time calibration (paper ref [20])";
  R.token ppf (E.token_calibration ~rotations:(scaled 10_000) ())

let latency_json (r : E.latency_run) =
  Printf.sprintf "{\"mean_us\": %.2f, \"p50_us\": %.2f, \"p99_us\": %.2f}"
    (Stats.Summary.mean r.E.summary)
    (Stats.Summary.percentile r.E.summary 50.)
    (Stats.Summary.percentile r.E.summary 99.)

let bench_fig5 () =
  section
    "E2 / Figure 5: end-to-end latency with and without the consistent time \
     service";
  let invocations = scaled 10_000 in
  Format.fprintf ppf "(%d invocations per run)@." invocations;
  let with_cts = E.latency ~invocations ~use_cts:true () in
  let without_cts = E.latency ~invocations ~use_cts:false () in
  R.latency_pair ppf ~with_cts ~without_cts;
  json_add "fig5"
    (Printf.sprintf
       "{\"invocations\": %d, \"with_cts\": %s, \"without_cts\": %s}"
       invocations (latency_json with_cts) (latency_json without_cts))

let bench_fig6_and_counts () =
  section "E3-E6 / Figure 6: skew, drift and CCS message counts";
  let rounds = scaled 10_000 in
  Format.fprintf ppf "(%d clock-related operations per replica)@.@." rounds;
  let run = E.skew ~rounds () in
  R.fig6a ppf run ~rounds:20;
  Format.fprintf ppf "@.";
  R.fig6b ppf run ~rounds:20;
  Format.fprintf ppf "@.";
  R.fig6c ppf run ~rounds:20;
  Format.fprintf ppf "@.";
  R.msg_counts ppf run;
  (* The per-second slope is quoted together with the round rate that
     produced it: the simulated workload issues rounds ~1000x faster
     than the paper's testbed, so only the per-round figure is
     comparable across setups (see Experiments.drift_stats). *)
  let ds = E.drift_stats run in
  json_add "fig6"
    (Printf.sprintf
       "{\"rounds\": %d, \"drift_slope_us_per_s\": %.4f, \
        \"drift_us_per_round\": %.4f, \"rounds_per_sec\": %.1f, \
        \"ccs_sent_total\": %d, \"ccs_suppressed_total\": %d}"
       rounds ds.E.per_second_us ds.E.per_round_us ds.E.rounds_per_sec
       (Array.fold_left ( + ) 0 run.E.ccs_sent)
       (Array.fold_left ( + ) 0 run.E.ccs_suppressed))

let bench_drift () =
  section "A1: drift-compensation ablation (paper section 3.3)";
  let rounds = scaled 2_000 in
  let strategies =
    [
      ("no compensation", `No_compensation);
      ("mean-delay (+50 us)", `Mean_delay 50);
      ("anchored (gain 0.1)", `Anchored (0.1, 50));
    ]
  in
  let runs =
    List.map (fun (name, c) -> (name, E.skew ~rounds ~compensation:c ()))
      strategies
  in
  R.drift_table ppf runs

let bench_rollback () =
  section "A2: clock roll-back on failover (paper section 1)";
  let readings_per_phase = scaled 30 in
  let baseline =
    E.rollback ~readings_per_phase ~style:Repl.Replica.Semi_active
      ~offset_tracking:false
      ~clock_offset_us:(fun i -> -300_000 * (i - 1))
      ()
  in
  let cts =
    E.rollback ~readings_per_phase ~style:Repl.Replica.Semi_active
      ~offset_tracking:true
      ~clock_offset_us:(fun i -> -300_000 * (i - 1))
      ()
  in
  R.rollback_pair ppf ~baseline ~cts

let bench_group_size () =
  section "A4: overhead vs replication degree";
  let invocations = scaled 2_000 in
  let rows =
    List.map
      (fun replicas ->
        ( replicas,
          E.latency ~invocations ~replicas ~use_cts:true (),
          E.latency ~invocations ~replicas ~use_cts:false () ))
      [ 2; 3; 4; 5 ]
  in
  R.group_size_table ppf rows

let bench_recovery () =
  section "A3: new-replica integration (paper section 3.2)";
  R.recovery ppf (E.recovery ~readings:(scaled 40) ())

let bench_delivery_mode () =
  section "A5: agreed vs safe delivery (Totem delivery-guarantee ablation)";
  let invocations = scaled 2_000 in
  let run delivery =
    E.latency ~invocations ~use_cts:true
      ~totem_config:{ Totem.Config.default with delivery }
      ()
  in
  let agreed = run Totem.Config.Agreed in
  let safe = run Totem.Config.Safe in
  Format.fprintf ppf "%-22s %-18s@." "delivery guarantee" "mean latency (us)";
  Format.fprintf ppf "%-22s %-18.1f@." "agreed (paper's)"
    (Stats.Summary.mean agreed.E.summary);
  Format.fprintf ppf "%-22s %-18.1f@." "safe"
    (Stats.Summary.mean safe.E.summary);
  Format.fprintf ppf
    "safe delivery stabilizes every message across the ring first; the      paper's CTS only needs agreed delivery@."

let bench_causal () =
  section "E7: causal group clocks across groups (paper section 5)";
  R.causal ppf (E.causal ())

let bench_mc () =
  section "MC1: schedule exploration throughput (lib/mc)";
  let budget = scaled 500 in
  let cfg = { Mc.Harness.default with Mc.Harness.rounds = 8 } in
  let run name strategy =
    let r, _, spread =
      best_of (fun () ->
          let r = Mc.Explore.explore ~strategy ~budget cfg in
          (r.Mc.Explore.elapsed_s, r))
    in
    Format.fprintf ppf
      "%-28s %6d schedules (%d distinct) in %.2f s — %.0f schedules/s (best \
       of %d, spread %.1f%%)@."
      name r.Mc.Explore.schedules r.Mc.Explore.distinct r.Mc.Explore.elapsed_s
      (Mc.Explore.schedules_per_sec r)
      passes (100. *. spread);
    (r, spread)
  in
  let random, spread = run "random walk" Mc.Strategy.default_random in
  let bounded, _ =
    run "bounded-reorder (depth 1)" (Mc.Strategy.Bounded { depth = 1 })
  in
  (* Which world-reset mechanism the harness settled on for this config:
     `Diff is the dirty-set restore; `Fresh means the restore
     verification probe rejected it and every schedule rebuilt its world
     from scratch — an order of magnitude slower, so it is loud. *)
  let mode =
    match Mc.Harness.reuse_mode (Mc.Harness.reusable cfg) with
    | `Diff -> "diff"
    | `Fresh -> "fresh"
  in
  Format.fprintf ppf "world reset mechanism: %s@." mode;
  if mode <> "diff" then
    Format.fprintf ppf
      "PERF WARNING (explore): the Snap restore probe failed; every \
       schedule pays fresh world construction@.";
  json_add "mc_explore"
    (Printf.sprintf
       "{\"schedules\": %d, \"distinct\": %d, \"schedules_per_sec\": %.1f, \
        \"schedules_per_sec_spread\": %.3f, \"bounded_schedules_per_sec\": \
        %.1f, \"reuse_mode\": %S}"
       random.Mc.Explore.schedules random.Mc.Explore.distinct
       (Mc.Explore.schedules_per_sec random)
       spread
       (Mc.Explore.schedules_per_sec bounded)
       mode)

(* MC2/OBS: raw engine throughput — timer events through the unboxed
   queue, no protocol on top, the denominator every simulation pays —
   and the observability stream's perf guard on the same loop.  Probes
   are compiled into every hot path and report through one gate, so the
   loop runs with the stream off (nothing attached — the default) and on
   with a recorder and [steps] set (one record per fired engine event,
   the worst case; real runs only record protocol-level events).  [n]
   wraps the ring dozens of times, so the steady-state wrap path is what
   gets measured.  Both run under the engine's GC tuning (as the
   explorer does) and meter the GC, so the zero-allocation claim is a
   measured number: minor-heap bytes per scheduled+fired event, and the
   minor collections a pass cost.  The off and on passes run as
   [passes] interleaved pairs, alternating which side goes first, so a
   stretch of host load slows both sides of a pair alike; the on/off
   ratio is the median of the per-pair ratios.  The bars: 0.0
   bytes/event in both passes (fastest pass of each side); stream off
   (fastest pass) within 5% of PR-3's engine throughput (20% on
   scaled-down runs, whose short passes sit inside the box's load
   noise); median pair ratio on/off >= 0.95 (0.90 scaled).  Any breach
   prints the one "PERF WARNING (obs)" marker, which CI turns into a
   hard failure. *)
let bench_engine () =
  section "MC2/OBS: raw engine event throughput, probe stream off vs on";
  let n = scaled 2_000_000 in
  (* The figure experiments above leave a grown, fragmented major heap;
     compact so the measurement starts from the same heap state as a
     standalone run. *)
  Gc.compact ();
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
        let s0 = Gc.quick_stat () in
        let t0 = Mc.Explore.wall () in
        let w0 = Gc.minor_words () in
        let done_ = ref 0 in
        while !done_ < n do
          let k = min batch (n - !done_) in
          for i = 1 to k do
            Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
          done;
          Dsim.Engine.run eng;
          done_ := !done_ + k
        done;
        let dt = Mc.Explore.wall () -. t0 in
        let bytes = (Gc.minor_words () -. w0) *. 8. /. float_of_int n in
        let minors =
          (Gc.quick_stat ()).Gc.minor_collections - s0.Gc.minor_collections
        in
        (dt, (bytes, minors))
      in
      let recorder = Obs.Recorder.create () in
      let sink = Obs.Sink.create () in
      Obs.Sink.set_recorder sink (Some recorder);
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
      let (bytes_off, minors_off), dt_off, spread_off =
        best (List.map fst pairs)
      in
      let (bytes_on, _), dt_on, spread_on = best (List.map snd pairs) in
      let per_sec_off = float_of_int n /. dt_off in
      let per_sec_on = float_of_int n /. dt_on in
      (* events/s on over events/s off = seconds off over seconds on *)
      let ratio =
        median (List.map (fun ((off, _), (on, _)) -> off /. on) pairs)
      in
      Format.fprintf ppf
        "(%d timer events per pass, %d interleaved off/on pairs; rates are \
         the fastest pass)@."
        n passes;
      Format.fprintf ppf
        "stream off: %.2e events/s (spread %.1f%%), %.1f bytes/event, %d \
         minor collection(s)@."
        per_sec_off (100. *. spread_off) bytes_off minors_off;
      Format.fprintf ppf
        "stream on:  %.2e events/s (spread %.1f%%), %.1f bytes/event — %.2fx \
         of stream off (median pair)@."
        per_sec_on (100. *. spread_on) bytes_on ratio;
      Format.fprintf ppf
        "ring after the runs: %d record(s) held of %d emitted (%d \
         overwritten by wrap)@."
        (Obs.Recorder.length recorder)
        (Obs.Recorder.total recorder)
        (Obs.Recorder.dropped recorder);
      let warn fmt = Format.fprintf ppf ("PERF WARNING (obs): " ^^ fmt ^^ "@.") in
      List.iter
        (fun (pass, bytes) ->
          if bytes > 0.05 then
            warn "%s allocates %.2f bytes/event on the engine hot path (must \
                  be 0.0)"
              pass bytes)
        [ ("stream off", bytes_off); ("stream on", bytes_on) ];
      let off_tolerance = if scale >= 1. then 0.95 else 0.80 in
      (match
         Option.bind (List.assoc_opt "PR3" points)
           (Trajectory.value Trajectory.engine_events_per_sec)
       with
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
          ratio on_tolerance;
      json_add "engine"
        (Printf.sprintf
           "{\"events\": %d, \"events_per_sec\": %.0f, \
            \"events_per_sec_spread\": %.3f, \"bytes_per_event\": %.2f, \
            \"minor_collections\": %d}"
           n per_sec_off spread_off bytes_off minors_off);
      json_add "obs_overhead"
        (Printf.sprintf
           "{\"events\": %d, \"off_events_per_sec\": %.0f, \
            \"off_bytes_per_event\": %.2f, \"on_events_per_sec\": %.0f, \
            \"on_bytes_per_event\": %.2f, \"on_over_off\": %.3f, \
            \"records_emitted\": %d, \"records_held\": %d}"
           n per_sec_off bytes_off per_sec_on bytes_on ratio
           (Obs.Recorder.total recorder)
           (Obs.Recorder.length recorder)))

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
  (* Scaling guard (PR-8): on a host that actually has the cores, four
     domains finishing behind one means the work-stealing frontier is
     losing to its own coordination — the PR-7 regression this PR
     exists to fix.  On smaller hosts the 4-domain row measures
     oversubscription, not scaling, so the guard stays informational. *)
  if cores >= 4 && speedup4 < 1.0 then
    Format.fprintf ppf
      "PERF WARNING (explore-scaling): speedup_4_over_1 is %.2fx (< 1.0) \
       with %d cores available@."
      speedup4 cores
  else if speedup4 < 1.0 then
    Format.fprintf ppf
      "note: speedup_4_over_1 is %.2fx on a %d-core host — \
       oversubscribed, not a scaling signal@."
      speedup4 cores;
  json_add "explore_scaling"
    (Printf.sprintf
       "{\"strategy\": \"random\", \"rounds\": 12, \"budget\": %d, \"jobs\": \
        [%s], \"speedup_4_over_1\": %.2f, \"cores_available\": %d}"
       budget
       (String.concat ", "
          (List.map
             (fun (jobs, sps, spread, wall, cpu) ->
               Printf.sprintf
                 "{\"jobs\": %d, \"schedules_per_sec\": %.1f, \
                  \"schedules_per_sec_spread\": %.3f, \"wall_s\": %.3f, \
                  \"cpu_s\": %.3f}"
                 jobs sps spread wall cpu)
             rows))
       speedup4 cores)

(* ------------------------------------------------------------------ *)

(* HIER1: the hierarchical multi-ring service scaled across cluster
   sizes.  Each point builds a shards x shard_size hierarchy with every
   shard's clocks skewed 1 ms per shard index, forms the rings, runs the
   readers and the bridge for a fixed window of simulated time, and
   reports the distinct bridge rounds agreed, their rate in wall and
   simulated seconds, and the converged cross-shard skew.  A point whose
   skew ends outside the bound, or that clamps a global-clock
   regression, emits a "PERF WARNING (hier)" marker that CI turns into a
   hard failure.

   The 256-replica point also guards PR 7's superlinear-cost
   elimination: a "PERF WARNING (scale)" marker, also a hard CI failure,
   when its formation creeps over budget.  PR 6 spent 2.6 s there and
   238 s at 1024; event-driven formation measures well under 0.2 s at
   256, so 1 s of headroom still catches any return of the superlinear
   term while tolerating a loaded CI box. *)
let bench_hier () =
  section "HIER1: hierarchical multi-ring scaling (lib/hier)";
  let module CH = Scenario.Cluster_hier in
  let module Span = Dsim.Time.Span in
  let all_sizes = [ (2, 2); (4, 4); (8, 8); (16, 16); (32, 32) ] in
  let sizes =
    if scale >= 1. then all_sizes
    else if scale >= 0.1 then [ (2, 2); (4, 4); (8, 8); (16, 16) ]
    else [ (2, 2); (4, 4); (8, 8) ]
  in
  List.iter
    (fun (s, k) ->
      if not (List.mem (s, k) sizes) then
        Format.fprintf ppf
          "(skipping %d-replica point at scale %g — run at scale >= 1 for \
           the full sweep)@."
          (s * k) scale)
    all_sizes;
  let window = Span.of_ms 100 in
  let bound_us = 5_000 in
  let form_budget_s = 1.0 in
  Format.fprintf ppf
    "(steady state = best of %d consecutive %d ms simulated windows — \
     background load on this box perturbs single windows by 50%%+ and \
     every window agrees the same rounds, so the fastest window is the \
     sustainable rate; 5 ms skew bound; %.1f s 256-replica formation \
     budget)@.@."
    passes
    (Span.to_us window / 1000)
    form_budget_s;
  Format.fprintf ppf
    "%-10s %-8s %-10s %-12s %-8s %-12s %-12s %-10s %-8s %s@." "replicas"
    "shards" "rounds" "rounds/s(w)" "spread" "rounds/s(sim)" "events/s(w)"
    "skew(us)" "q-hwm" "form(s)";
  let rows =
    List.map
      (fun (shards, shard_size) ->
        let topo = Hier.Topology.create ~shards ~shard_size in
        let clock_config i =
          {
            Clock.Hwclock.default_config with
            offset =
              Span.of_ms
                (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
          }
        in
        let t = CH.create ~seed:11L ~clock_config ~shards ~shard_size () in
        let form_s, () = timed (fun () -> CH.start_all t) in
        CH.start_readers t;
        let bridge_round t =
          Array.fold_left
            (fun acc (r : CH.replica) ->
              max acc (Hier.Global_clock.round (Hier.Gateway.global r.gateway)))
            0 t.CH.replicas
        in
        (* consecutive windows; the sim keeps advancing, so each window
           measures the same periodic steady state *)
        let (rounds, events), steady_s, spread =
          best_of (fun () ->
              let rb = bridge_round t in
              let eb = Dsim.Engine.steps t.CH.eng in
              let dt, () = timed (fun () -> CH.run_for t window) in
              (dt, (bridge_round t - rb, Dsim.Engine.steps t.CH.eng - eb)))
        in
        let replicas = shards * shard_size in
        let skew_us = Span.to_us (CH.cross_shard_skew t) in
        let regr = CH.regressions t in
        let hwm = CH.queue_hwm t in
        let per_wall = float_of_int rounds /. steady_s in
        let events_per_wall = float_of_int events /. steady_s in
        let per_sim =
          float_of_int rounds
          /. (float_of_int (Span.to_us window) /. 1e6)
        in
        Format.fprintf ppf
          "%-10d %-8d %-10d %-12.1f %-8s %-12.1f %-12.3e %-10d %-8d %.2f@."
          replicas shards rounds per_wall
          (Printf.sprintf "%.1f%%" (100. *. spread))
          per_sim events_per_wall skew_us hwm form_s;
        if skew_us >= bound_us then
          Format.fprintf ppf
            "PERF WARNING (hier): %d-replica cross-shard skew %d us ended \
             outside the %d us bound@."
            replicas skew_us bound_us;
        if regr > 0 then
          Format.fprintf ppf
            "PERF WARNING (hier): %d-replica run clamped %d global-clock \
             regression(s)@."
            replicas regr;
        if replicas = 256 && form_s > form_budget_s then
          Format.fprintf ppf
            "PERF WARNING (scale): 256-replica formation took %.2f s, over \
             the %.1f s budget (the superlinear term is back)@."
            form_s form_budget_s;
        Printf.sprintf
          "{\"replicas\": %d, \"shards\": %d, \"shard_size\": %d, \
           \"bridge_rounds\": %d, \"rounds_per_wall_sec\": %.1f, \
           \"rounds_per_wall_sec_spread\": %.3f, \"rounds_per_sim_sec\": \
           %.1f, \"events_per_wall_sec\": %.0f, \"skew_us\": %d, \
           \"regressions\": %d, \"queue_hwm\": %d, \"formation_wall_s\": \
           %.3f}"
          replicas shards shard_size rounds per_wall spread per_sim
          events_per_wall skew_us regr hwm form_s)
      sizes
  in
  json_add "hier"
    (Printf.sprintf
       "{\"window_ms\": %d, \"skew_bound_us\": %d, \"formation_budget_s\": \
        %.1f, \"sizes\": [%s]}"
       (Span.to_us window / 1000)
       bound_us form_budget_s (String.concat ", " rows))

(* SCALE1: re-run the largest HIER1 point with an [Obs.Attrib] recorder
   attached and report where the wall nanoseconds actually go, per
   (subsystem, probe) self time — the measurement that located the PR-7
   hot spots (GCS delivery routing, the totem join storm, watchdog
   chase, bridge offer fan-out) in the first place. *)
let bench_scale () =
  section "SCALE1: wall-time attribution at the largest HIER1 point";
  let module CH = Scenario.Cluster_hier in
  let module Span = Dsim.Time.Span in
  let shards, shard_size =
    if scale >= 1. then (32, 32) else if scale >= 0.1 then (16, 16) else (8, 8)
  in
  let topo = Hier.Topology.create ~shards ~shard_size in
  let clock_config i =
    {
      Clock.Hwclock.default_config with
      offset =
        Span.of_ms (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
    }
  in
  let t = CH.create ~seed:11L ~clock_config ~shards ~shard_size () in
  let recorder = Obs.Attrib.create () in
  Obs.Sink.set_attrib (Dsim.Engine.obs t.CH.eng) (Some recorder);
  let wall_s, () =
    timed (fun () ->
        CH.start_all t;
        CH.start_readers t;
        CH.run_for t (Span.of_ms 100))
  in
  Obs.Sink.set_attrib (Dsim.Engine.obs t.CH.eng) None;
  let attributed_s = Obs.Attrib.total_ns recorder /. 1e9 in
  Format.fprintf ppf
    "attribution: %d replicas, formation + 100 ms steady, %.2f s wall, \
     %.2f s attributed (%.0f%%); self time per (subsystem, probe):@.@."
    (shards * shard_size) wall_s attributed_s
    (100. *. attributed_s /. wall_s);
  Format.fprintf ppf "%a@." Obs.Attrib.pp recorder;
  (* The key every point since PR 7 files this section under (the
     top-level "scale" is the CTS_BENCH_SCALE factor). *)
  json_add "scale_deltas"
    (Printf.sprintf
       "{\"attribution_replicas\": %d, \"attribution_wall_s\": %.3f, \
        \"attribution\": %s}"
       (shards * shard_size) wall_s
       (Obs.Attrib.to_json recorder))

(* LINT2: the full-tree ctslint pass — sweep every .ml under lib/ bin/
   bench/ test/ examples/, load its .cmt typedtree, walk it once, and
   judge every rule (determinism, attribute hygiene, hot-path
   certification, domain safety).  Unmarshalling typedtrees dominates.
   Every swept file needs a typedtree, so run `dune build @check` first;
   a file without one is a missing-cmt finding. *)
let bench_lint () =
  section "LINT2: ctslint full-tree pass (.cmt typedtrees)";
  match (root, Option.bind root Lint.Cmt_loader.find_build_dir) with
  | None, _ | _, None ->
      Format.fprintf ppf
        "bin-annot build not found from %s; section skipped@." (Sys.getcwd ())
  | Some root, Some build_dir ->
      let dirs = List.map (Filename.concat root) tree in
      let run () = Lint.Typed_check.run ~build_dir dirs in
      ignore (run () : Lint.Typed_check.result) (* warm: page in the cmts *);
      let r, dt, spread = best_of (fun () -> timed run) in
      let findings = r.Lint.Typed_check.r_findings in
      let roots = List.length r.Lint.Typed_check.r_roots in
      let certified_roots =
        List.length (List.filter snd r.Lint.Typed_check.r_roots)
      in
      let units_per_sec = float_of_int r.Lint.Typed_check.r_units /. dt in
      Format.fprintf ppf
        "%d unit(s) for %d file(s), %d function(s), %d/%d root(s) \
         certified, %d certified total, %d finding(s), %d suppression(s) in \
         %.1f ms — %.0f units/s (best of %d, spread %.1f%%)@."
        r.Lint.Typed_check.r_units r.Lint.Typed_check.r_files
        r.Lint.Typed_check.r_fns certified_roots roots
        (List.length r.Lint.Typed_check.r_certified)
        (List.length findings)
        (List.length r.Lint.Typed_check.r_supps)
        (dt *. 1e3) units_per_sec passes (100. *. spread);
      json_add "lint_typed"
        (Printf.sprintf
           "{\"files\": %d, \"units\": %d, \"functions\": %d, \
            \"hot_roots\": %d, \"hot_roots_certified\": %d, \"certified\": \
            %d, \"findings\": %d, \"suppressions\": %d, \"wall_ms\": %.1f, \
            \"units_per_sec\": %.0f, \"units_per_sec_spread\": %.3f}"
           r.Lint.Typed_check.r_files r.Lint.Typed_check.r_units
           r.Lint.Typed_check.r_fns roots certified_roots
           (List.length r.Lint.Typed_check.r_certified)
           (List.length findings)
           (List.length r.Lint.Typed_check.r_supps)
           (dt *. 1e3) units_per_sec spread);
      (* deterministic invariant, not a timing: a finding or an
         uncertified root breaks the lint gate, and CI's grep tier fails
         the job on this line *)
      if findings <> [] || certified_roots < roots then
        Format.fprintf ppf
          "PERF WARNING (lint): %d finding(s)%s, %d/%d hot root(s) certified@."
          (List.length findings)
          (match findings with
          | f :: _ -> ", first: " ^ Lint.Finding.to_string f
          | [] -> "")
          certified_roots roots

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the substrate                          *)

let micro_tests () =
  let open Bechamel in
  let test_event_queue =
    Test.make ~name:"event_queue push+pop x1000"
      (Staged.stage (fun () ->
           let q = Dsim.Event_queue.create () in
           for i = 0 to 999 do
             Dsim.Event_queue.push q (Dsim.Time.of_us (997 * i mod 5000)) () i
           done;
           while not (Dsim.Event_queue.is_empty q) do
             ignore (Dsim.Event_queue.pop q)
           done))
  in
  let rng = Dsim.Rng.create 1L in
  let test_rng =
    Test.make ~name:"rng int_range x1000"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Dsim.Rng.int_range rng 0 1_000_000 : int)
           done))
  in
  let test_engine =
    Test.make ~name:"engine 1000 timer events"
      (Staged.stage (fun () ->
           let eng = Dsim.Engine.create () in
           for i = 1 to 1000 do
             Dsim.Engine.schedule eng (Dsim.Time.Span.of_us i) ignore
           done;
           Dsim.Engine.run eng))
  in
  let test_ccs_round =
    Test.make ~name:"full CCS round (3 replicas, sim)"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            let rounds =
              E.skew ~seed:(Int64.of_int !counter) ~rounds:5 ()
            in
            ignore rounds))
  in
  let test_token_rotation =
    Test.make ~name:"token rotation x100 (4-node ring, sim)"
      (Staged.stage
         (let counter = ref 0 in
          fun () ->
            incr counter;
            ignore
              (E.token_calibration ~seed:(Int64.of_int !counter)
                 ~rotations:100 ()
                : E.token_run)))
  in
  [
    test_event_queue; test_rng; test_engine; test_ccs_round;
    test_token_rotation;
  ]

let run_micro () =
  section "Micro-benchmarks (Bechamel, wall-clock per call)";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let tests = Test.make_grouped ~name:"micro" ~fmt:"%s %s" (micro_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let merged = Analyze.merge ols instances results in
  let clock_results =
    Hashtbl.find merged (Measure.label Toolkit.Instance.monotonic_clock)
  in
  Format.fprintf ppf "%-45s %s@." "benchmark" "time per call";
  let rows = Dsim.Det.sorted_bindings ~compare:String.compare clock_results in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ x ] -> x
        | Some _ | None -> nan
      in
      let pretty =
        if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
        else Printf.sprintf "%.0f ns" est
      in
      Format.fprintf ppf "%-45s %s@." name pretty)
    rows

let () =
  Format.fprintf ppf
    "Consistent Time Service reproduction benchmarks (scale=%.3g)@." scale;
  bench_calibration ();
  bench_fig4 ();
  bench_token ();
  bench_fig5 ();
  bench_fig6_and_counts ();
  bench_drift ();
  bench_rollback ();
  bench_group_size ();
  bench_recovery ();
  bench_causal ();
  bench_delivery_mode ();
  bench_mc ();
  bench_engine ();
  bench_mc_scaling ();
  bench_hier ();
  bench_scale ();
  bench_lint ();
  run_micro ();
  let run = emit_json () in
  section "TRAJECTORY: headline metrics of every checked-in point and this run";
  Trajectory.report ppf ~run points;
  Format.fprintf ppf "@.done.@."
