(* Every metric the suite reports, with its unit and direction.
   BENCHMARK.json declares the same names, units and directions (plus
   the regression bounds of the end-to-end metrics); the smoke test
   checks that the two lists agree. *)

type better = Lower | Higher

type kind =
  | Wall  (** host-dependent: wall time, allocation, heap *)
  | Sim
      (** a count or a simulated quantity: identical across runs with the
          same seed and the same number of chunks *)
  | Sim_traced  (** like [Sim], but counted by the traced run's recorder *)

type t = { name : string; unit_ : string; better : better; kind : kind }

let m name unit_ better kind = { name; unit_; better; kind }

(* What a user of the simulator sees: set-up cost, throughput and the
   memory a built world holds.  Reported with --trace 0.  Every workload
   reports all of them. *)
let end_to_end =
  [
    m "setup_s" "s" Lower Wall;
    m "ops_per_s" "1/s" Higher Wall;
    m "world_mb" "MB" Lower Wall;
  ]

(* One layer each, named <layer>.<metric>.  Reported with --trace 1;
   a metric a workload does not exercise reads 0. *)
let per_layer =
  [
    m "dsim.events_per_op" "count" Lower Sim;
    m "dsim.residual_ns_per_op" "ns" Lower Wall;
    m "dsim.bare_ns_per_event" "ns" Lower Wall;
    m "dsim.queue_hwm" "count" Lower Sim;
    m "netsim.packets_per_op" "count" Lower Sim;
    m "netsim.drops_per_op" "count" Lower Sim;
    m "netsim.self_ns_per_op" "ns" Lower Wall;
    m "totem.tokens_per_op" "count" Lower Sim;
    m "totem.regular_per_op" "count" Lower Sim;
    m "totem.retransmits_per_op" "count" Lower Sim;
    m "totem.views_installed" "count" Lower Sim;
    m "totem.token_self_ns_per_op" "ns" Lower Wall;
    m "totem.regular_self_ns_per_op" "ns" Lower Wall;
    m "totem.membership_self_ns_per_op" "ns" Lower Wall;
    m "totem.m_join_calls" "count" Lower Sim_traced;
    m "totem.membership_self_ms" "ms" Lower Wall;
    m "gcs.ring_view_self_ns_per_op" "ns" Lower Wall;
    m "cts.rounds_per_op" "count" Lower Sim;
    m "cts.ccs_sent_per_round" "count" Lower Sim;
    m "cts.suppressed_per_round" "count" Higher Sim;
    m "cts.self_ns_per_op" "ns" Lower Wall;
    m "cts.overhead_us" "us" Lower Sim;
    m "cts.drift_abs_us_per_round" "us" Lower Sim;
    m "rpc.requests_per_invocation" "count" Lower Sim;
    m "rpc.duplicate_replies_per_invocation" "count" Lower Sim;
    m "rpc.read_latency_us_p50" "us" Lower Sim;
    m "rpc.read_latency_us_p99" "us" Lower Sim;
    m "repl.processed_per_invocation" "count" Lower Sim;
    m "hier.self_ns_per_round" "ns" Lower Wall;
    m "hier.elections" "count" Lower Sim;
    m "hier.corrections_per_round" "count" Lower Sim;
    m "hier.regressions" "count" Lower Sim;
    m "hier.skew_us_p50" "us" Lower Sim;
    m "hier.skew_breach_chunks" "count" Lower Sim;
    m "hier.failover_gap_us_p50" "us" Lower Sim;
    m "hier.failover_gap_us_p90" "us" Lower Sim;
    m "scenario.setup_self_ms" "ms" Lower Wall;
    m "scenario.formation_sim_ms" "ms" Lower Sim;
    m "gc.minor_bytes_per_op" "B" Lower Wall;
    m "gc.peak_heap_mb" "MB" Lower Wall;
    m "gc.major_collections" "count" Lower Wall;
    m "mc.run_us_per_schedule" "us" Lower Wall;
    m "mc.check_us_per_schedule" "us" Lower Wall;
    m "mc.steps_per_schedule" "count" Lower Sim;
    m "mc.distinct_ratio" "ratio" Higher Sim;
    m "mc.reuse_diff" "count" Higher Sim;
    m "obs.attributed_share" "ratio" Higher Wall;
    m "obs.trace_overhead_pct" "%" Lower Wall;
  ]

let find name =
  List.find_opt (fun e -> String.equal e.name name) (end_to_end @ per_layer)

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None
