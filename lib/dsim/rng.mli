(** Deterministic, splittable pseudo-random number generator.

    A thin splitmix64 implementation.  Every stochastic component of the
    simulation draws from its own split stream so that adding a new consumer
    never perturbs the draws seen by existing consumers, and a run is fully
    determined by the root seed. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator stream. *)

val split : t -> t
(** [split t] derives an independent stream; [t] advances by one draw. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future draws). *)

val state : t -> int64
(** Internal splitmix64 state.  Together with {!set_state} this lets a
    snapshot/restore facility (e.g. [Mc.Harness] reuse) save a stream and
    later rewind it exactly; the state is the complete description of all
    future draws. *)

val set_state : t -> int64 -> unit
(** [set_state t s] rewinds [t] to a previously observed {!state} (or to a
    fresh seed): the next draws equal those of [create s]. *)

val int64 : t -> int64
(** Next raw 64-bit draw. *)

val bits : t -> int
(** 62 uniform non-negative bits. *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] draws uniformly from the inclusive range
    [\[lo, hi\]].  Raises [Invalid_argument] if [lo > hi]. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [\[0, x)]. *)

val bool : t -> bool

val choose : t -> 'a list -> 'a
(** Uniform choice.  Raises [Invalid_argument] on the empty list. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normally distributed draw (Box-Muller). *)
