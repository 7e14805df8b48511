(** One controlled run of the CCS scenario.

    Builds the standard testbed ({!Scenario.Cluster}) with one consistent
    time service per node, lets every replica perform [rounds] group clock
    reads separated by think time, and drives the whole simulation under a
    {!Controller.spec} — so the same configuration replayed with the same
    deviation trace is bit-identical.  Each application read is a [read]
    record on the world's stream, and a fresh {!Obs.Check} on that stream
    judges the run; the {!Invariant.outcome} carries its verdicts, and an
    {!info} describes the schedule that was actually executed. *)

type bug = Ignore_buffered_winner
    (** Test-only seeded reordering bug: replica 0 ignores a winner that
        was buffered before its round opened and keeps its own proposal.
        Dormant on schedules where replica 0 always opens its rounds first
        (see {!config.straggle_us}); exposed by schedules that delay
        replica 0 past another replica's winning CCS message. *)

type config = {
  replicas : int;  (** cluster size; every node runs a replica (>= 2) *)
  rounds : int;  (** group clock reads per replica *)
  seed : int64;  (** root seed of the whole run *)
  think_us : int;  (** inter-round think time of replica 0 *)
  straggle_us : int;  (** extra think time of replicas > 0 *)
  jitter_us : int;  (** uniform extra think time, drawn per round *)
  latency_us : int;  (** constant wire latency *)
  skew_clocks : bool;
      (** give node [i] a [500 i] µs offset and [3 i] ppm drift, so a
          replica that leaked its local clock would be caught loudly *)
  crash_at_round : int option;
      (** crash the last replica when it completes this round (failover
          perturbation) *)
  bug : bug option;
  record_packets : bool;
      (** render the last 256 send / deliver / drop records of the
          measurement's stream into the outcome's [packet_log], reading
          them from the sink's recorder, or from a recorder lent to the
          sink for this measurement when it carries none. *)
  sink : Obs.Sink.t option;
      (** observability sink adopted by the world's engine for the
          measurement (re-adopted after every restore, so it works with
          the reuse path too); [None] keeps the world's own.  The run's
          check rides on it either way: the measurement attaches a fresh
          one and detaches it at the end.  Attaching a sink never
          perturbs the run: the probes only read simulation state. *)
}

val default : config
(** 3 replicas, 20 rounds, seed 1, 100 µs think, 40 µs jitter, 20 µs
    constant latency, skewed clocks, no crash, no bug, no packet log. *)

type info = {
  deviations : Schedule.t;  (** applied deviations, chronological *)
  steps : int;  (** engine choice points seen *)
  packets : int;  (** network packets seen *)
  ties : (int * int) list;  (** [(step, ready)] branching points *)
  fingerprint : int;  (** hash of all reads — schedule identity *)
}

val run : ?spec:Controller.spec -> config -> Invariant.outcome * info

(** {2 Harness reuse}

    World construction (ring formation + group membership) dominates the
    cost of a run.  A {!reusable} snapshots the pristine post-startup
    world once and restores it per run instead of rebuilding it, which is
    sound because startup never draws from any random stream — it only
    splits them in a fixed order, so the post-startup state is
    seed-independent and the streams can be rewound to any seed
    afterwards.

    The snapshot is a {!Snap} dirty-set rewind of the live world (no
    allocation, no rebuild), trusted only after a verification probe
    proved restore + reseed replays a pristine run bit-for-bit.  If the
    probe fails, the reusable falls back to fresh construction — so
    {!run_reused} always returns exactly what {!run} would, and
    {!reuse_mode} says which one the runs pay for. *)

type reusable

val reuse_mode : reusable -> [> `Diff | `Fresh ]
(** Which mechanism the next {!run_reused} will use: [`Diff] = dirty-set
    restore of the live world, [`Fresh] = full reconstruction.
    Diagnostic (the bench reports it, loudly when it is not [`Diff]);
    results are identical in both modes. *)

val reusable : config -> reusable
(** Build a reusable worker harness for configurations sharing this
    configuration's startup projection ([replicas], [latency_us],
    [skew_clocks]). *)

val reset : reusable -> config -> bool
(** [reset r cfg] readies [r] for a run of [cfg], rebuilding the snapshot
    if [cfg]'s startup projection differs from the current one.  Returns
    [false] when reuse is unavailable and runs will fall back to fresh
    construction (the fallback is handled inside {!run_reused}; callers
    only need the return value for diagnostics). *)

val run_reused :
  reusable -> ?spec:Controller.spec -> config -> Invariant.outcome * info
(** Like {!run}, but restoring [reusable]'s snapshot instead of
    rebuilding the world when possible.  Guaranteed to produce results
    identical to {!run} for the same [spec] and [cfg]. *)

