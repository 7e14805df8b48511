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
      (** render the outcome's [packet_log] ({!World.observe}) *)
  sink : Obs.Sink.t option;
      (** sink the measurement adopts, [None] = the world's own; the
          run's check rides on it ({!World.observe}).  Probes only read
          simulation state, so a sink never perturbs the run. *)
}

val default : config
(** 3 replicas, 20 rounds, seed 1, 100 µs think, 40 µs jitter, 20 µs
    constant latency, skewed clocks, no crash, no bug, no packet log. *)

type info = World.info = {
  deviations : Schedule.t;  (** applied deviations, chronological *)
  steps : int;  (** engine choice points seen *)
  packets : int;  (** network packets seen *)
  ties : (int * int) list;  (** [(step, ready)] branching points *)
  fingerprint : int;  (** hash of all reads — schedule identity *)
}

(** The CTS world's runs and reuse: startup only splits the random
    streams in a fixed order, so one snapshot of the post-startup world
    serves every seed of one [replicas], [latency_us] and [skew_clocks]. *)
include World.RUN with type config := config

val reuse_mode : reusable -> [> `Diff | `Fresh ]
(** {!reuse} as the bench reports it: [`Diff] = dirty-set restore of
    the live world, [`Fresh] = full reconstruction. *)
