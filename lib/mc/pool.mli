(** The explorer's runner: executes an indexed batch of schedules over
    [jobs] worker domains (OCaml 5 [Domain]s).

    Every run of a world ({!World.RUN}) is a pure function of its seed
    and controller spec, and each worker builds its own reusable world,
    so workers share nothing but the index shards and the result array,
    whose slots are written by exactly one worker each.  The index space
    [0, n) is split into one contiguous shard per domain; a worker eats
    its own shard from the front and steals the back half of the fullest
    survivor when it runs dry, so the common case takes only its own
    uncontended lock.

    The random strategy is one batch over its run indices; the bounded
    strategy is one batch per BFS level.  {!Explore.explore} is the only
    caller: it merges the results in index order, so reports do not
    depend on [jobs]. *)

type run_result = {
  seed : int64;
  steps : int;  (** engine choice points of the run *)
  fingerprint : int;  (** outcome fingerprint — schedule identity *)
  violated : (string * Schedule.t) option;
      (** the first broken invariant and the run's applied deviations *)
  children : Controller.spec list;
      (** the run's {!Strategy.bounded_children} when a bounded search
          needs the next level; otherwise empty *)
}

val run :
  (module World.RUN with type config = 'c) ->
  jobs:int ->
  stop_at_first:bool ->
  quantum:Dsim.Time.Span.t ->
  Strategy.t ->
  'c ->
  int ->
  run_result option array
(** [run world ... strategy cfg budget] runs at most [budget] schedules
    of [strategy] from [cfg]'s seed; slot [i] holds the [i]-th run's
    result.  [Random] runs {!Strategy.random_run} [0] to [budget - 1]
    as one batch.  [Bounded] runs breadth first, one batch per level:
    level [l + 1] is the {!Strategy.bounded_children} of level [l]'s
    results in index order, the last level cut to the budget left, so
    the slots are the runs of a FIFO frontier in its order.  With
    [stop_at_first], slots past the first violating index may be [None]
    (and no level past its level is run); every slot up to it is
    filled.  Each worker builds its reusable world once. *)
