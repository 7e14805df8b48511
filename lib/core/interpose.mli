(** Library interpositioning of the clock-related system calls (§4.1).

    The paper captures `gettimeofday()`, `time()` and `ftime()` with
    library interpositioning so the application needs no code changes.  The
    simulation equivalent: the replication infrastructure installs a
    context (which consistent time service, which logical thread) for the
    fiber that runs application code, and application code calls the usual
    entry points with no arguments:

    {[
      let handle ~op ... =
        let now = Cts.Interpose.gettimeofday () in
        ...
    ]}

    A binding is handler-scoped, not stored: {!with_context} runs its
    function under an effect handler that answers the clock calls' lookup,
    so the binding covers exactly the dynamic extent of that function —
    across every suspension inside it, since a parked fiber's continuation
    carries its handlers — and nothing else.  Fibers start and resume from
    engine callbacks ({!Dsim.Fiber}), where no binding is in scope, so
    replicas of different groups hosted on the same simulated node cannot
    leak clocks into each other. *)

exception No_context
(** Raised by the clock calls when no {!with_context} encloses the call —
    the simulation's equivalent of running without the interposition
    library preloaded. *)

val with_context :
  Service.t -> thread:Thread_id.t -> (unit -> 'a) -> 'a
(** [with_context service ~thread f] runs [f] with the clock calls bound to
    [service]/[thread].  Nests: the innermost binding wins, and the outer
    one is back when [f] returns or raises.  The clock calls block, so
    [f] must run inside a fiber to read the clock. *)

val gettimeofday : unit -> Dsim.Time.t
(** Microsecond granularity; blocks for the CCS round like the underlying
    {!Service.gettimeofday}. *)

val time : unit -> Dsim.Time.t
(** Second granularity. *)

val ftime : unit -> Dsim.Time.t
(** Millisecond granularity. *)

val context : unit -> (Service.t * Thread_id.t) option
(** The innermost binding enclosing the call, if any. *)
