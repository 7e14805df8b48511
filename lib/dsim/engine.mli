(** Discrete-event simulation engine.

    The engine owns the virtual clock and the event queue.  Every other
    component of the simulator (network, protocol nodes, replicas,
    application fibers) is driven by callbacks scheduled here.  A run is a
    pure function of the root seed. *)

type t

type choice = Take of int | Postpone of Time.Span.t
    (** A scheduling decision at a choice point: [Take i] runs the [i]-th
        event (insertion order, clamped) among those sharing the earliest
        timestamp; [Postpone d] re-enqueues the earliest event [d] later
        without running anything.  Both keep virtual time monotone. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes an engine whose virtual clock starts at
    {!Time.epoch}.  Default seed is [1L]. *)

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream.  Components should {!Rng.split} their
    own stream from it at construction time. *)

val obs : t -> Obs.Sink.t
(** The engine's observability sink — inactive (and therefore free apart
    from one load + branch per probe) until a recorder or a check is
    attached with {!Obs.Sink.set_recorder} / {!Obs.Sink.set_check}.
    Every instrumented layer reads the sink through its engine at each
    probe site rather than caching it, so attaching after construction
    (or after [Mc.Harness] restores a world) takes effect immediately. *)

val set_obs : t -> Obs.Sink.t -> unit
(** Adopt an externally owned sink (used by the scenario harness and the
    model checker to share one sink across a rebuilt world). *)

val schedule_at : t -> Time.t -> (unit -> unit) -> unit
(** [schedule_at t at f] runs [f] when the virtual clock reaches [at].
    Raises [Invalid_argument] if [at] is in the past. *)

val schedule : t -> Time.span -> (unit -> unit) -> unit
(** [schedule t d f] runs [f] after delay [d] (clipped to be >= 0). *)

val schedule_call : t -> Time.span -> ('a -> unit) -> 'a -> unit
(** [schedule_call t d fn arg] runs [fn arg] after delay [d] (clipped to
    be >= 0).  Unlike {!schedule} with a closure built at the call site,
    the [(fn, arg)] pair is parked directly in the event queue's payload
    lanes (recycled slots), so steady-state scheduling allocates nothing
    on the minor heap.  Pass a top-level (or otherwise preallocated) [fn]
    to get the full benefit; a fresh closure for [fn] reintroduces the
    allocation. *)

val schedule_call_at : t -> Time.t -> ('a -> unit) -> 'a -> unit
(** Absolute-time variant of {!schedule_call}.  Raises [Invalid_argument]
    if the instant is in the past. *)

val run : ?until:Time.t -> ?max_events:int -> t -> unit
(** Process events in timestamp order until the queue drains, the optional
    [until] horizon is passed, or [max_events] callbacks have run.
    Exceptions raised by callbacks propagate and abort the run. *)

val step : t -> bool
(** Process a single event; [false] if the queue was empty.  When a
    scheduler hook is installed, the hook picks which ready event runs (or
    postpones the head); a [Postpone] step performs no callback but still
    returns [true]. *)

val set_scheduler : t -> (ready:int -> choice) option -> unit
(** Install (or remove, with [None]) a schedule-exploration hook.  The hook
    is consulted on every {!step} with [ready] = the number of events
    sharing the earliest timestamp (>= 1).  Without a hook the engine pops
    strictly in [(time, insertion)] order — the default deterministic
    schedule.  Used by [Mc] to enumerate interleavings; a hook that always
    answers [Take 0] reproduces the default schedule exactly. *)

val with_gc_tuning : ?minor_heap_words:int -> ?space_overhead:int ->
  (unit -> 'a) -> 'a
(** [with_gc_tuning f] runs [f] under GC parameters sized for the
    simulator hot loop — a 1M-word minor heap (short-lived event garbage
    dies young instead of being promoted; larger heaps measured slower
    here, they outgrow the cache) and a relaxed [space_overhead]
    (default 800: simulation live heaps are tiny, so trading idle memory
    for ~3x fewer major collections is nearly free) — and restores the
    previous parameters afterwards, also on exception.  Used by the
    benchmarks and by [ctsim] around exploration. *)

val pending : t -> int
(** Number of queued events. *)

val steps : t -> int
(** Events executed since creation — a plain counter kept outside the obs
    sink so event-rate accounting costs one increment even with no sink
    attached. *)

val fresh_fiber_id : t -> int
(** The next fiber identifier of this engine: 1 for its first fiber, then
    2, 3, …  The counter is engine state, so a world rebuilt (or restored)
    from the same seed numbers its fibers identically.  Used by {!Fiber}. *)

val queue_high_water : t -> int
(** Deepest the event queue has ever been during this engine's life (or
    since {!reset_queue_high_water}) — the backlog-pressure gauge behind
    the [event_queue_hwm] metric. *)

val reset_queue_high_water : t -> unit

val trim : t -> unit
(** Shrink the event queue to fit what is pending now
    ({!Event_queue.trim}).  The queue keeps the capacity of its deepest
    burst otherwise; call this once a known burst (a cluster's formation)
    has drained.  The schedule is unaffected. *)

val stop : t -> unit
(** Makes the current {!run} return after the in-progress callback. *)
