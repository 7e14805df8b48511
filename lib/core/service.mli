(** The consistent time service of a replica (the paper's core mechanism).

    One service instance runs at each replica of a group.  Every
    clock-related operation ({!gettimeofday}, {!time}, {!ftime}) opens a CCS
    round (Figure 2): the replica reads its physical hardware clock, adds
    its clock offset, and — unless a CCS message for the round has already
    been delivered — multicasts the resulting local clock value as its
    proposal for the group clock.  The first CCS message delivered by the
    totally-ordered multicast determines the group clock for the round at
    every replica; the offset is then recomputed as group clock minus
    physical clock.

    The service supports both replication disciplines (§2, §3.3):
    {!Active}, where all replicas compete to be the round's synchronizer,
    and {!Primary_backup} (used by passive and semi-active replication),
    where only the current primary sends CCS messages and a promoted backup
    first checks its input buffer before sending.

    Setting [offset_tracking = false] turns the service into the
    prior-work baseline ([9], [3] in the paper): the primary distributes its
    raw physical clock value and no offset is maintained, which is exactly
    the scheme whose roll-back / fast-forward behaviour on failover the
    paper's introduction criticises.  The {!stats} rollback counters make
    that behaviour measurable. *)

type mode = Active | Primary_backup

type config = {
  mode : mode;
  drift : Drift.t;
  offset_tracking : bool;
  recovering : bool;
      (** [true] for a replica added to a running group: the service starts
          uninitialized and adopts its offset from the special CCS round of
          the state transfer (§3.2) *)
}

val default_config : config
(** Active mode, no drift compensation, offset tracking on, not
    recovering. *)

type stats = {
  rounds_completed : int;
  ccs_sent : int;  (** CCS messages this replica actually multicast *)
  ccs_received : int;
  suppressed : int;
      (** rounds where sending was suppressed because the winner's CCS
          message had already been delivered (§4.3's duplicate
          suppression) *)
  rollbacks : int;
      (** times two consecutive clock readings of one thread went backwards
          (always 0 with the consistent group clock; nonzero for the
          baseline under failover) *)
  max_rollback : Dsim.Time.Span.t;
  last_value : Dsim.Time.t option;  (** most recent group clock reading *)
}

type t

val create :
  Dsim.Engine.t ->
  endpoint:Gcs.Endpoint.t ->
  group:Gcs.Group_id.t ->
  clock:Clock.Hwclock.t ->
  ?config:config ->
  unit ->
  t

(** {1 Wiring}

    The owner of the group subscription (the replication infrastructure)
    feeds the service with delivered messages and view changes. *)

val on_message : t -> Gcs.Msg.t -> unit
(** Figure 3: route a delivered message.  Non-CCS messages are ignored, so
    the whole delivery stream can be passed through. *)

val on_view : t -> Gcs.View.t -> unit
(** Track the group view (primary rank for {!Primary_backup} mode).  A
    backup promoted to primary re-sends the CCS message for any round it is
    blocked in, per §3 ("if the primary fails ... the new primary replica
    will send a consistent clock synchronization message"). *)

(** {1 Clock operations (library-interposition entry points, §4.1)}

    All three must be called from a fiber and block until the round's group
    clock value is known.  [thread] identifies the calling logical thread
    (§2: threads are created in the same order at all replicas). *)

val gettimeofday : t -> thread:Thread_id.t -> Dsim.Time.t
(** Microsecond granularity. *)

val time : t -> thread:Thread_id.t -> Dsim.Time.t
(** Second granularity. *)

val ftime : t -> thread:Thread_id.t -> Dsim.Time.t
(** Millisecond granularity. *)

val clock_read : t -> thread:Thread_id.t -> call:Call_type.t -> Dsim.Time.t
(** The generic entry point behind the three wrappers. *)

(** {1 State transfer (§3.2, Integration of New Clocks)} *)

val special_round : t -> Dsim.Time.t
(** Run the special CCS round on the reserved recovery thread.  Existing
    replicas call this immediately before taking the checkpoint; the
    returned value is the group clock at the synchronization point. *)

val initialized : t -> bool
(** A recovering replica becomes initialized when the special round's CCS
    message arrives and its offset is adopted. *)

val thread_rounds : t -> (Thread_id.t * int) list
(** Current round number of every known thread — recorded in checkpoints. *)

val advance_thread : t -> thread:Thread_id.t -> round:int -> unit
(** Fast-forward a thread to [round] (checkpoint application). *)

(** {1 Multiple groups (§5)}

    The paper's conclusion sketches the extension this implements: carrying
    the group clock as a timestamp in messages sent to other groups, so the
    causal order between the group clocks of different groups is preserved.
    A replica observing a timestamp raises its causal floor; subsequent
    proposals — and hence the group clock — never fall below it, so a clock
    read that causally follows a read in another group returns a larger
    value. *)

val observe_timestamp : t -> Dsim.Time.t -> unit
(** Record a group-clock timestamp carried by a delivered message.
    Observation happens in delivery order at every replica, so the floor is
    identical group-wide. *)

val last_reading : t -> Dsim.Time.t option
(** The most recent group clock value at this replica — the timestamp to
    attach to outgoing inter-group messages. *)

(** {1 Introspection} *)

val offset : t -> Dsim.Time.Span.t
(** The current [my_clock_offset]. *)

val stats : t -> stats

val reset_stats : t -> unit
(** Zero the counters (benchmarks call this after the startup transient so
    measurements cover only the workload). *)

val group : t -> Gcs.Group_id.t
val me : t -> Netsim.Node_id.t
