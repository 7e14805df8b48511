(** Top-level exploration driver, and the only explorer.

    Runs the harness under a {!Strategy}; every schedule is judged by
    the {!Obs.Check} the harness attaches to its run.  The
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

val explore :
  ?strategy:Strategy.t ->
  ?budget:int ->
  ?quantum_us:int ->
  ?stop_at_first:bool ->
  ?jobs:int ->
  Harness.config ->
  report
(** [explore cfg] drives at most [budget] (default 500) schedules.
    [quantum_us] (default 200) is the packet-delay quantum handed to the
    controller.  With [stop_at_first] (default [true]) the report ends at
    the first violating schedule; otherwise exploration keeps going and
    accumulates violations.  [jobs] (default 1: everything on the calling
    domain, no domain spawned) is the number of worker domains; the
    report is the same at any [jobs] except for its timing fields and
    [jobs] itself.  Raises [Invalid_argument] if [jobs < 1]. *)

val trace_violation :
  ?quantum_us:int ->
  ?capacity:int ->
  Harness.config ->
  violation ->
  Obs.Trace.t * Obs.Metrics.t * int
(** Replay the violation's minimal counterexample once more with a
    recorder of [capacity] records (default 1,000,000) on the replayed
    world's stream, returning its Chrome trace and metrics fold — the
    cross-layer companion to the [packet_log] — and the number of
    records the ring overwrote (0 unless the replay outgrew [capacity];
    trace and metrics then cover only the last [capacity] records).
    [quantum_us] must match the value
    the violation was explored with (default 200).  Probes never perturb
    a run, so the replay still reproduces the violation. *)

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
