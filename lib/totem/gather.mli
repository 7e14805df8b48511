(** The candidate and failed sets of one gather attempt, and the
    agreement test that ends it.

    A node in gather keeps the union of every candidate ([proc]) and
    failed ([fail]) set it has heard, plus each sender's latest join.
    Consensus is reached when every live candidate's latest join carries
    exactly the local sets.  As in Totem, a join from a failed node is
    ignored, and a sender whose join names this node as failed is failed
    in return (its other failures are not adopted).

    Both sets are {!Bits} bitsets, and a join carries its sets the same
    way, each with its cardinality.  Within one attempt both sets only
    ever grow by union, so once a join from a live candidate [p] has been
    absorbed its sets are subsets of the local ones.  "[p]'s join carries
    exactly the local sets" therefore reduces to equal cardinalities, two
    int compares.  A count of agreeing live candidates is kept:

    - a join that does not grow the local sets costs two subset tests
      (one pass over the words each) and one int-keyed table write, and
      moves the count by at most one;
    - after a strict growth every stored join of a live sender is a
      subset of the {e old} sets, so it is now smaller than the new ones
      in one cardinality and cannot agree.  Only the join that caused the
      growth can, so the count is recomputed in O(1) (plus one pass over
      the words for the live count);
    - {!agreed} is one int compare. *)

type t

val create : me:Netsim.Node_id.t -> proc:Bits.t -> fail:Bits.t -> t
(** A fresh attempt.  [me] is added to [proc] and removed from [fail]. *)

val proc_set : t -> Bits.t
val fail_set : t -> Bits.t

val live : t -> Bits.t
(** [proc_set \ fail_set]; always contains [me]. *)

val absorb : t -> Wire.join -> bool
(** Record the join as its sender's latest and union its sets into the
    local ones, by the rules above.  Returns [true] when the local sets
    grew.  Absorbing this node's own join, built from the current sets,
    stores it and changes nothing else. *)

val fail : t -> Bits.t -> unit
(** Add nodes to the failed set ([me] excepted). *)

val find : t -> Netsim.Node_id.t -> Wire.join option
(** The latest join absorbed from a node. *)

val deadline : t -> Bits.t
(** Called at each consensus deadline: the live candidates no join was
    absorbed from since the previous deadline (since {!create} for the
    first).  A live candidate retransmits its join every
    [join_retransmit], so one silent for a whole deadline has stopped; a
    candidate whose last join is merely stale (it crashed after sending
    it) is caught here too, where "no join ever" would wait for it
    forever. *)

val agreed : t -> bool
(** Every live candidate's latest join carries exactly {!proc_set} and
    {!fail_set}. *)
