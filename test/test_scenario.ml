(* Smoke tests for the experiment runners: every benchmark path executes at
   a small scale and its headline shape assertions hold.  (The full-scale
   numbers live in EXPERIMENTS.md; these tests make sure a regression in
   any layer shows up in `dune runtest` and not only in the bench run.) *)

module E = Scenario.Experiments
module Time = Dsim.Time
module Span = Dsim.Time.Span

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_latency_overhead_positive () =
  let with_cts = E.latency ~invocations:120 ~use_cts:true () in
  let without = E.latency ~invocations:120 ~use_cts:false () in
  let m_w = Stats.Summary.mean with_cts.E.summary in
  let m_wo = Stats.Summary.mean without.E.summary in
  check int "all invocations measured" 120
    (Stats.Summary.count with_cts.E.summary);
  check bool "consistent time service costs latency" true (m_w > m_wo);
  (* ... on the order of a token rotation (~205 us), not microseconds and
     not milliseconds *)
  check bool "overhead is about one rotation" true
    (m_w -. m_wo > 100. && m_w -. m_wo < 500.)

let test_latency_deterministic_across_runs () =
  let run () =
    Stats.Summary.mean (E.latency ~seed:9L ~invocations:50 ~use_cts:true ()).E.summary
  in
  check (Alcotest.float 1e-9) "same seed, same result" (run ()) (run ())

let test_skew_samples_complete () =
  let r = E.skew ~rounds:60 () in
  Array.iteri
    (fun i samples ->
      check int (Printf.sprintf "replica %d sample count" i) 60
        (List.length samples))
    r.E.samples;
  (* every replica records the same group clock sequence *)
  let gcs i = List.map (fun s -> s.E.gc) r.E.samples.(i) in
  check bool "identical group clock at replicas" true
    (gcs 0 = gcs 1 && gcs 1 = gcs 2)

let test_skew_group_clock_runs_slow () =
  let r = E.skew ~rounds:400 () in
  check bool "negative drift" true (E.drift_slope r < 0.)

(* Fig6 drift audit: the headline −100k µs/s slope is the per-round ratchet
   multiplied by the (accelerated) round issue rate, not a unit bug in the
   model.  Pin the calibrated per-round figure to the one-way-delay band
   and pin the per-second slope to per-round × rate, so any future unit or
   sign error in the sampling/reporting path trips this test. *)
let test_drift_slope_calibrated () =
  let r = E.skew ~seed:5L ~rounds:800 () in
  let s = E.drift_stats r in
  check bool "per-round ratchet within one-way-delay band" true
    (s.E.per_round_us < -5. && s.E.per_round_us > -80.);
  check bool "rounds are issued every few hundred us" true
    (s.E.rounds_per_sec > 1_000. && s.E.rounds_per_sec < 20_000.);
  let predicted = s.E.per_round_us *. s.E.rounds_per_sec in
  check bool "per-second slope = per-round x issue rate" true
    (Float.abs (s.E.per_second_us -. predicted)
    < 0.25 *. Float.abs s.E.per_second_us)

let test_skew_message_total_near_rounds () =
  let r = E.skew ~rounds:300 () in
  let total = Array.fold_left ( + ) 0 r.E.ccs_sent in
  (* paper: total = number of rounds; we allow a small overshoot from
     concurrent token visits *)
  check bool "one CCS message per round on the wire" true
    (total >= 300 && total < 360)

let test_anchored_compensation_removes_drift () =
  let uncomp = E.drift_slope (E.skew ~rounds:600 ()) in
  let anchored =
    E.drift_slope (E.skew ~rounds:600 ~compensation:(`Anchored (0.1, 0)) ())
  in
  check bool "uncompensated drifts" true (uncomp < -10_000.);
  check bool "anchored drift at least 10x smaller" true
    (Float.abs anchored < Float.abs uncomp /. 10.)

let test_rollback_baseline_vs_cts () =
  let go offset_tracking =
    E.rollback ~readings_per_phase:10 ~style:Repl.Replica.Semi_active
      ~offset_tracking ()
  in
  let baseline = go false and cts = go true in
  check bool "baseline rolls back" true (baseline.E.client_rollbacks > 0);
  check int "cts never rolls back" 0 cts.E.client_rollbacks;
  check bool "baseline rollback magnitude ~ clock skew" true
    Span.(baseline.E.client_max_rollback > Span.of_ms 100)

let test_token_calibration_peak () =
  let r = E.token_calibration ~rotations:2_000 () in
  let peak =
    Stats.Histogram.bin_mid r.E.hop_histogram
      (Stats.Histogram.mode_bin r.E.hop_histogram)
  in
  check bool "peak near the paper's 51 us/hop" true (peak > 45. && peak < 60.)

let test_recovery_experiment () =
  let r = E.recovery ~readings:24 () in
  check bool "initialized" true r.E.joiner_initialized;
  check bool "state matches" true r.E.joiner_state_matches;
  check bool "monotone" true r.E.group_clock_monotone

let test_fig4_rows_sorted () =
  let rows = E.fig4 () in
  let sorted =
    List.sort
      (fun (a : E.fig4_row) b ->
        compare (a.f4_round, a.f4_replica) (b.f4_round, b.f4_replica))
      rows
  in
  check bool "rows in (round, replica) order" true (rows = sorted)

let suites =
  [
    ( "scenario.experiments",
      [
        Alcotest.test_case "latency overhead" `Slow
          test_latency_overhead_positive;
        Alcotest.test_case "latency deterministic" `Quick
          test_latency_deterministic_across_runs;
        Alcotest.test_case "skew completeness" `Quick
          test_skew_samples_complete;
        Alcotest.test_case "drift slope calibrated" `Slow
          test_drift_slope_calibrated;
        Alcotest.test_case "group clock runs slow" `Slow
          test_skew_group_clock_runs_slow;
        Alcotest.test_case "message total" `Slow
          test_skew_message_total_near_rounds;
        Alcotest.test_case "anchored removes drift" `Slow
          test_anchored_compensation_removes_drift;
        Alcotest.test_case "rollback comparison" `Quick
          test_rollback_baseline_vs_cts;
        Alcotest.test_case "token peak" `Quick test_token_calibration_peak;
        Alcotest.test_case "recovery" `Quick test_recovery_experiment;
        Alcotest.test_case "fig4 ordering" `Quick test_fig4_rows_sorted;
      ] );
  ]
