(** The Totem single-ring protocol engine (one instance per node).

    Provides reliable, totally-ordered ("agreed") delivery of multicast
    messages with ring membership: a token rotates around a logical ring of
    the live nodes; only the token holder broadcasts, assigning consecutive
    sequence numbers from the token; gaps are repaired through the token's
    retransmission-request list.  Membership changes (crash, join, network
    partition, remerge) run a gather/commit consensus on the new ring
    followed by a recovery exchange that floods undelivered old-ring
    messages among the old ring's surviving members, preserving agreed
    delivery across the view change.  On a partition each component forms
    its own ring; the upper layer applies the primary-component rule.

    Simplifications relative to Amir et al. [1] (documented in DESIGN.md):
    agreed rather than safe delivery, and the recovery exchange floods raw
    old-ring messages instead of re-sequencing them on the new ring. *)

type 'a t

type 'a event =
  | Deliver of {
      ring : Ring_id.t;
      seq : int;
      sender : Netsim.Node_id.t;
      payload : 'a;
    }
      (** A message in the agreed total order.  All nodes that deliver
          messages of a given ring deliver the same subsequence, in
          sequence-number order. *)
  | View of { ring : Ring_id.t; members : Netsim.Node_id.t list }
      (** A new ring was installed; all old-ring messages that will ever be
          delivered here were delivered before this event. *)
  | Blocked
      (** The node left the operational state (membership change in
          progress); multicasts are queued until the next [View]. *)

type stats = {
  tokens_seen : int;
  msgs_sent : int;  (** regular messages broadcast (own, not retransmits) *)
  retransmits : int;
  views_installed : int;
  delivered : int;
}

val create :
  Dsim.Engine.t ->
  'a Wire.t Netsim.Network.t ->
  me:Netsim.Node_id.t ->
  ?config:Config.t ->
  handler:('a event -> unit) ->
  unit ->
  'a t
(** Attaches to the network.  The node is inert until {!start}. *)

val start : 'a t -> unit
(** Begin the membership protocol (broadcast Join).  The first [View]
    event announces the initial ring. *)

val multicast : ?unless:(unit -> bool) -> 'a t -> 'a -> unit
(** Queue a payload for totally-ordered broadcast at the next token visit.
    If [unless] is given, it is evaluated exactly once, when the token
    arrives and the message is about to be broadcast; returning [true]
    discards the message instead (the paper's token-level duplicate
    suppression for CCS messages).  Raises [Invalid_argument] after
    {!crash}. *)

val crash : 'a t -> unit
(** Fail-stop: detach from the network and ignore everything thereafter.
    Idempotent. *)

val me : 'a t -> Netsim.Node_id.t
val ring : 'a t -> Ring_id.t option
val members : 'a t -> Netsim.Node_id.t list
(** The current ring's members, ascending by id. *)

val is_operational : 'a t -> bool
val pending : 'a t -> int
(** Multicasts queued but not yet broadcast. *)

val stats : 'a t -> stats

val on_token : 'a t -> (Wire.token -> unit) -> unit
(** Instrumentation hook invoked on every accepted token visit (used by the
    token-rotation calibration bench). *)
