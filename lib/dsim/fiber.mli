(** Cooperative fibers on top of OCaml effect handlers.

    Fibers give simulated code the blocking style of the paper's POSIX
    threads — a replica thread really does block inside
    [get_grp_clock_time()] until the first CCS message arrives — while the
    whole system remains a deterministic single-threaded simulation.

    All blocking operations ({!sleep}, {!suspend}, and the primitives in
    {!Sync}) must be called from inside a fiber; calling them elsewhere
    raises {!Not_in_fiber}.

    Each fiber has an identifier, drawn from its engine
    ({!Engine.fresh_fiber_id}): the first fiber of an engine is 1, the
    next 2, and so on.  Identifiers only label the [fiber-spawn] /
    [fiber-switch] records of the observability stream, so a recorded run
    is a function of its world, seed and schedule.  Fiber-local state is
    handler-scoped instead (see [Cts.Interpose]): a fiber starts, and
    {!Sync} resumes it, from an engine callback, so the only handlers
    around its code are its own. *)

exception Not_in_fiber

val spawn : Engine.t -> (unit -> unit) -> unit
(** [spawn eng f] schedules a new fiber running [f] at the current virtual
    instant.  An exception escaping [f] aborts the simulation run. *)

val sleep : Engine.t -> Time.span -> unit
(** Block the calling fiber for the given virtual duration. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling fiber and calls [register resume].
    The fiber continues when [resume ()] is invoked (from any callback;
    effects the fiber does not handle itself reach the handlers around
    that call, so resume from an engine callback, as {!Sync} does, to
    keep its handler-scoped state its own).  [resume] must be called at
    most once; a second call raises [Invalid_argument]. *)

val yield : Engine.t -> unit
(** Re-schedule the calling fiber at the same instant, letting other
    pending events at this instant run first. *)
