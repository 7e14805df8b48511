(** Schedule-exploration strategies.

    A strategy names the [(seed, controller spec)] runs to explore:

    - [Random]: seed sweep plus random walk — every run re-seeds the whole
      cluster (clock jitter, think times) and randomly delays packets /
      reorders same-time events with the given probabilities;
    - [Bounded]: bounded-reorder exhaustive search on a fixed seed —
      systematically enumerates every schedule deviating from the default
      one in at most [depth] places, using the branching structure
      (packets, tie steps) reported back from completed runs. *)

type t =
  | Random of { delay_prob : float; reorder_prob : float }
  | Bounded of { depth : int }

val default_random : t
(** [Random] with 1% packet delays and 25% tie reorders. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> t option
(** ["random"] or ["bounded"]. *)

val random_run :
  base_seed:int64 ->
  quantum:Dsim.Time.Span.t ->
  delay_prob:float ->
  reorder_prob:float ->
  int ->
  int64 * Controller.spec
(** The [i]-th run of the [Random] strategy, as a pure function of [i]:
    run indices can be partitioned across worker domains ({!Pool}) and
    still enumerate the same runs. *)

val bounded_children :
  quantum:Dsim.Time.Span.t ->
  parent:Controller.spec ->
  info:Harness.info ->
  Controller.spec list
(** The one-deviation extensions of [parent] exposed by its run's
    branching structure ([info]) — the [Bounded] strategy's expansion
    rule, applied by {!Pool.run_bounded} to every result of one BFS level
    to form the next.  Depends only on [parent] and [info], so the BFS
    frontier is deterministic however runs are scheduled. *)
