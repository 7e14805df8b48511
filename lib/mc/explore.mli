(** Top-level exploration driver, and the only explorer.

    Runs a world ({!World.RUN}: the CTS {!Harness} or the
    {!Hier_harness} hierarchy) under a {!Strategy}; every schedule is
    judged by the {!Obs.Check} the world attaches to its run.  The
    schedules themselves run on {!Pool}'s index-sharded runner over
    [jobs] worker domains: the random strategy as one batch of run
    indices, the bounded strategy one BFS level at a time.  Results are
    merged in schedule order and the report is cut at the first
    violation, so it is identical at any [jobs].  Each reported
    violation is then, sequentially on the calling domain, replayed from
    its applied deviation trace to confirm determinism, delta-debugged
    down to a minimal counterexample ({!Shrink}), and re-run once more
    with a recorder on the stream so the report can show the packet log
    and the black box alongside the minimal reorder trace. *)

type violation = {
  invariant : string;  (** the first verdict's property *)
  detail : string;  (** the first verdict's worst value, node and witness *)
  seed : int64;  (** harness seed of the failing run *)
  counterexample : Schedule.t;  (** minimal failing deviation trace *)
  original_deviations : int;  (** trace length before shrinking *)
  shrink_runs : int;  (** simulator re-runs spent shrinking *)
  packet_log : string;  (** packet trace of the minimal replay *)
  blackbox : string;
      (** flight-recorder window of the minimal replay, in
          {!Obs.Postmortem} dump format — every shrunk counterexample
          ships its own black box, whose verdict lines are the failing
          run's check.  A function of the counterexample:
          fiber ids are per engine, so the same violation dumps the same
          bytes in any process and at any [jobs] *)
}

type report = {
  strategy : string;
  invariants : string list;  (** the properties the world's check judges *)
  budget : int;
  jobs : int;  (** worker domains that executed the schedules (1 = serial) *)
  schedules : int;  (** schedules actually executed *)
  distinct : int;  (** distinct outcome fingerprints observed *)
  steps_total : int;  (** simulator events stepped, summed over runs *)
  elapsed_s : float;  (** wall time, monotonic clock *)
  cpu_s : float;  (** process CPU time, aggregated over all domains *)
  violations : violation list;
}

val schedules_per_sec : report -> float
(** Schedules per wall-clock second. *)

val wall : unit -> float
(** Monotonic wall clock in seconds (arbitrary origin). *)

val cpu : unit -> float
(** Process CPU time in seconds, summed over every running domain. *)

(** The explorer over any world. *)
module Make (R : World.RUN) : sig
  val explore :
    ?strategy:Strategy.t ->
    ?budget:int ->
    ?quantum_us:int ->
    ?stop_at_first:bool ->
    ?jobs:int ->
    R.config ->
    report
  (** [explore cfg] drives at most [budget] (default 500) schedules, with
      a [quantum_us] (default 200) packet-delay quantum.  With
      [stop_at_first] (default [true]) the report ends at the first
      violating schedule, else it accumulates violations.  [jobs]
      (default 1: no domain spawned) worker domains run the schedules;
      the report is the same at any [jobs] but for its timing fields and
      [jobs].  Raises [Invalid_argument] if [jobs < 1]. *)

  val trace_violation :
    ?quantum_us:int ->
    R.config ->
    violation ->
    Obs.Trace.t * Obs.Metrics.t * int
  (** Replay the violation's minimal counterexample with a recorder of
      1,000,000 records on its stream: its Chrome trace, its metrics
      fold, and the number of records the ring overwrote (0 unless the
      replay outgrew it).  [quantum_us]
      must match the exploration's (default 200).  Probes never perturb
      a run, so the replay reproduces the violation. *)
end

include module type of Make (Harness)
(** The explorer over the CTS world ({!Harness}). *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
