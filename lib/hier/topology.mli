(** Static shard layout of a hierarchical cluster.

    [shards × shard_size] replicas carry dense global node ids: replica
    [rank] of shard [s] is node [s × shard_size + rank].  Every shard runs
    its own Totem ring on its own network segment; the elected gateway of
    each shard additionally attaches (under its global node id) to a
    shared bridge network.  The layout is immutable — membership changes
    happen inside shards (views) and on the bridge (attach/detach), never
    by renumbering. *)

type t

val create : shards:int -> shard_size:int -> t
(** Raises [Invalid_argument] unless both are ≥ 1. *)

val shards : t -> int
val shard_size : t -> int
val replicas : t -> int
(** Total replica count, [shards × shard_size]. *)

val shard_of : t -> Netsim.Node_id.t -> int
(** Raises [Invalid_argument] for ids outside the layout. *)

val rings : t -> int array
(** [shard_of] of every replica, by node id: the ring partition an
    {!Obs.Check} judges a hierarchy's stream by. *)

val rank_of : t -> Netsim.Node_id.t -> int

val node : t -> shard:int -> rank:int -> Netsim.Node_id.t

val shard_members : t -> int -> Netsim.Node_id.t list
(** Global ids of a shard's replicas, in rank order. *)

val ring_distance : t -> int -> int -> int
(** Distance between two shard indices on the shard ring (for the
    neighbour-skew metric and distance-dependent WAN latency). *)

val pp : Format.formatter -> t -> unit
