(** Per-replica gateway agent.

    Every replica of a hierarchical cluster owns one (cheap, passive)
    agent.  The agent watches its shard's group view; when the replica is
    the deterministic election winner — the minimum live node id, via
    {!Dsim.Det.elect} — of a primary-component view, it {e activates}:
    attaches to the bridge network and takes part in cross-shard rounds.
    When a later view elects someone else (or the component loses
    primacy), it resigns.  Election is thus re-run identically at every
    surviving replica on every view change, which is what makes gateway
    failover deterministic.

    Bridge protocol (a star): the gateway of the lowest live shard
    coordinates.  Every bridge period it broadcasts a [Poll]; gateways
    answer with an [Offer] carrying [max (local shard estimate, last
    agreed global value)]; after a fixed collection window the
    coordinator broadcasts [Agree (max offers)].

    On [Agree], a gateway folds the value into its monotone
    {!Global_clock} and, if the agreed value is ahead of its shard,
    raises its {!Cts.Service} causal floor to
    [min (agreed, local + max_correction)] — the bounded forward
    correction that drags the shard's CCS rounds toward the global
    clock without ever stepping a clock backwards.

    Liveness is tracked per shard from bridge traffic: a shard unheard
    of for [liveness_timeout] is presumed dead, which moves the
    coordinator role past crashed gateways.  The period (2 ms), the
    collection window (900 µs), [liveness_timeout] (6.5 ms) and
    [max_correction] (10 ms) are constants of the protocol. *)

type stats = {
  elections : int;  (** times this replica became its shard's gateway *)
  agreed_rounds : int;  (** [Agree] messages applied *)
  corrections : int;  (** causal-floor injections into the local shard *)
  coordinated : int;  (** bridge rounds this replica opened *)
}

type t

val create :
  Dsim.Engine.t ->
  Bridge_msg.t Netsim.Network.t ->
  topology:Topology.t ->
  shard:int ->
  me:Netsim.Node_id.t ->
  service:Cts.Service.t ->
  clock:Clock.Hwclock.t ->
  t

val on_view : t -> Gcs.View.t -> unit
(** Feed the shard's group view changes (wire this next to
    [Cts.Service.on_view] in the group handler). *)

val crash : t -> unit
(** Stop participating (models the replica's host crashing).  Idempotent. *)

val elected : t -> Netsim.Node_id.t option
(** This replica's view of who its shard's gateway is. *)

val global : t -> Global_clock.t
val stats : t -> stats

val set_on_correction : t -> (unit -> unit) -> unit
(** Hook fired right after a correction raised the causal floor.  The
    scenario harness uses it to trigger an immediate extra clock read at
    the gateway replica: the floored proposal then becomes the shard's
    next buffered synchronizer message and the whole shard adopts the
    correction within one reader period, instead of waiting for the
    gateway to win a delivery race. *)
