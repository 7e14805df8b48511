(** Canned hierarchical testbed: [shards] Totem rings of [shard_size]
    replicas each, every shard on its own LAN segment, bridged by a WAN
    network that carries the cross-shard gateway protocol ({!Hier}).

    Unlike {!Cluster} there is no client node and no RPC layer: every
    replica runs a {!Cts.Service} directly and a periodic reader fiber
    opens the shard's CCS rounds, which is the workload the paper's §4.2
    clock-sequence experiment induces through active replication — here
    scaled to hundreds of replicas without the request plumbing. *)

type replica = {
  id : Netsim.Node_id.t;
  shard : int;
  rank : int;
  endpoint : Gcs.Endpoint.t;
  clock : Clock.Hwclock.t;
  service : Cts.Service.t;
  gateway : Hier.Gateway.t;
  mutable crashed : bool;
  mutable boost : bool;
      (** set by the gateway's correction hook; makes the reader fiber
          issue its next clock read immediately (see
          {!Hier.Gateway.set_on_correction}) *)
}

type t = {
  eng : Dsim.Engine.t;
  topo : Hier.Topology.t;
  shard_nets : Gcs.Endpoint.payload Totem.Wire.t Netsim.Network.t array;
  bridge : Hier.Bridge_msg.t Netsim.Network.t;
  replicas : replica array;  (** indexed by global node id *)
  group : Gcs.Group_id.t;
  mutable readers_stopped : bool;
  form_dirty : bool array;
      (** per shard: a membership event fired since the formation
          predicate last looked (internal to {!start_all}'s barriers) *)
  form_cache : bool array;
  mutable form_formed : int;
  mutable form_any_dirty : bool;
}

val create :
  ?seed:int64 ->
  ?bridge_latency:Netsim.Latency.t ->
  ?clock_config:(int -> Clock.Hwclock.config) ->
  ?obs:Obs.Sink.t ->
  shards:int ->
  shard_size:int ->
  unit ->
  t
(** [clock_config i] configures global node [i]'s physical clock (use
    [Hier.Topology.shard_of] to skew whole shards).  [bridge_latency]
    (default: the WAN model) is the bridge network's latency; each shard
    runs on a calibrated LAN.  Readers open a CCS round every 2 ms.
    Endpoints are created but not started. *)

val start_all : t -> unit
(** Start every endpoint and run the simulation until each shard's ring
    and group membership are complete.  The completion barriers are
    event-driven: ring-view/blocked/group-view hooks mark shards dirty
    and only dirty shards are re-checked, so a quiet engine step costs
    O(1) instead of the previous O(shards x shard_size^2) poll — the
    exit step is unchanged.  On exit the event queue is trimmed
    ({!Dsim.Engine.trim}) so the built world does not keep the join
    storm's peak capacity. *)

val start_readers : t -> unit
(** Spawn the periodic clock-reader fiber on every live replica.  Readers
    sleep to common period boundaries so all replicas of a shard open the
    same CCS round together (first read one period after the call). *)

val stop_readers : t -> unit

val run_for : t -> Dsim.Time.Span.t -> unit
val run_until : ?limit:Dsim.Time.Span.t -> t -> (unit -> bool) -> unit

val crash : t -> Netsim.Node_id.t -> unit
(** Crash a replica (endpoint, gateway agent and reader). *)

val live_members : t -> int -> Netsim.Node_id.t list
(** Shard [s]'s non-crashed replicas, in node-id order. *)

val crash_gateway : t -> int -> Netsim.Node_id.t option
(** Crash shard [s]'s current gateway, if any; returns its id. *)

val gateway_of : t -> int -> Netsim.Node_id.t option
(** Who shard [s]'s live replicas believe is their gateway ([None] when
    they disagree or no election has happened — disagreement is an
    invariant violation the model checker looks for). *)

val isolate_shard : t -> int -> unit
(** Partition the bridge so shard [s]'s gateway cannot reach the other
    shards (the shard's own ring keeps running). *)

val heal_bridge : t -> unit

(** {1 Measurements} *)

val estimate : t -> Netsim.Node_id.t -> Dsim.Time.t
(** A replica's current group-clock estimate. *)

val shard_estimates : t -> Dsim.Time.t option array
(** Per shard: the lowest live replica's estimate ([None] if the shard is
    entirely dead). *)

val cross_shard_skew : t -> Dsim.Time.Span.t
(** Worst-case spread (max − min) of the live shard estimates. *)

val neighbor_skew : t -> Dsim.Time.Span.t
(** Largest estimate gap between ring-adjacent live shards (the Gradient
    TRIX quality metric). *)

val converged : t -> bound:Dsim.Time.Span.t -> bool

val agreed_rounds : t -> int
(** Bridge rounds applied, summed over all agents. *)

val regressions : t -> int
(** Global-clock regression attempts (clamped), summed over all agents —
    expected 0 while any holder of the agreed value survives. *)

val ccs_rounds_completed : t -> int
(** Reader CCS rounds completed, summed over live replicas. *)

val queue_hwm : t -> int
(** Event-queue high-water mark of the underlying engine (deepest the
    queue has been since engine creation) — the backlog-pressure gauge. *)
