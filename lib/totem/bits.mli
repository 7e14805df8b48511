(** Immutable sets of node ids as int-array bitsets with their
    cardinality.

    The membership protocol's candidate and failed sets travel in every
    join and are tested and unioned on every receipt.  As bitsets those
    tests cost one pass over the words instead of a balanced-tree walk,
    and {!cardinal} is a field read.  A set of ids below [62 * w] spans
    [w] words. *)

type t

val empty : t
val singleton : Netsim.Node_id.t -> t
val of_list : Netsim.Node_id.t list -> t
val elements : t -> Netsim.Node_id.t list
(** Ascending. *)

val cardinal : t -> int
(** O(1): the count is stored with the words. *)

val is_empty : t -> bool
val mem : Netsim.Node_id.t -> t -> bool

val subset : t -> t -> bool
(** [subset a b] is [a ⊆ b]. *)

val union : t -> t -> t
val diff : t -> t -> t
val add : Netsim.Node_id.t -> t -> t
val remove : Netsim.Node_id.t -> t -> t

val diff_cardinal : t -> t -> int
(** [cardinal (diff a b)] without building it. *)

val filter : (Netsim.Node_id.t -> bool) -> t -> t

val min_elt : t -> Netsim.Node_id.t
(** Raises [Not_found] on the empty set. *)

val pp : Format.formatter -> t -> unit

(** {2 Countdown}

    A mutable set that only shrinks, with its size: the members whose
    message is still awaited. *)

type countdown

val countdown : Netsim.Node_id.t list -> countdown

val strike : countdown -> Netsim.Node_id.t -> unit
(** Remove a node if it is still awaited; anything else (a node struck
    before, or never in the set) changes nothing. *)

val remaining : countdown -> int
