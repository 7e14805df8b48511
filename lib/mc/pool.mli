(** The explorer's runner: executes an indexed batch of schedules over
    [jobs] worker domains (OCaml 5 [Domain]s).

    Every harness run is a pure function of its seed and controller spec,
    and each worker builds its own {!Harness.reusable} world, so workers
    share nothing but the index shards and the result array, whose slots
    are written by exactly one worker each.  The index space [0, n) is
    split into one contiguous shard per domain; a worker eats its own
    shard from the front and steals the back half of the fullest
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
      (** the run's {!Strategy.bounded_children} when {!run_bounded}
          needs the next level; otherwise empty *)
}

val run_random :
  jobs:int ->
  stop_at_first:bool ->
  quantum:Dsim.Time.Span.t ->
  delay_prob:float ->
  reorder_prob:float ->
  Harness.config ->
  int ->
  run_result option array
(** [run_random ... cfg n] runs {!Strategy.random_run} [0] to [n - 1]
    from [cfg]'s seed.  Slot [i] holds run [i]'s result.  With
    [stop_at_first], slots past the first violating index may be [None]
    (workers stop spending time there); every slot up to it is filled.
    Without it, every slot is filled. *)

val run_bounded :
  jobs:int ->
  stop_at_first:bool ->
  quantum:Dsim.Time.Span.t ->
  depth:int ->
  Harness.config ->
  int ->
  run_result option array
(** [run_bounded ... cfg budget] runs the bounded-reorder search on
    [cfg]'s seed breadth first, one batch per level: level [l + 1] is the
    {!Strategy.bounded_children} of level [l]'s results in index order,
    and the last level is cut to the budget left.  The slots are the
    runs of a FIFO frontier, in its order, filled as for {!run_random};
    with [stop_at_first], the level holding the first violation is the
    last one run.  Each worker builds its {!Harness.reusable} world once
    and keeps it across levels. *)
