(** Priority queue of timestamped events, struct-of-arrays layout.

    A 4-ary min-heap ordered by [(time, insertion sequence)]: events at the
    same instant pop in insertion order, which makes the simulation fully
    deterministic.

    The heap is three parallel [int] arrays (instant, sequence,
    payload-slot index); payloads sit outside the heap in two lanes
    indexed by a stable slot, so sifting moves only immediates — no
    write barriers on the hot path.  The two payload lanes exist so the
    engine can park an [(fn, arg)] pair without boxing it into a tuple;
    single-payload users put [()] (or anything) in the lane they don't
    need. *)

type ('f, 'v) t

val create : ?capacity:int -> unit -> ('f, 'v) t
(** [create ?capacity ()] makes an empty queue.  [capacity] preallocates
    the backing arrays so the first [capacity] pushes never resize; the
    queue still grows past it on demand. *)

val push : ('f, 'v) t -> Time.t -> 'f -> 'v -> unit
(** [push q at fn v] enqueues the payload pair [(fn, v)] to fire at
    instant [at]. *)

val pop : ('f, 'v) t -> (Time.t * 'f * 'v) option
(** Remove and return the earliest event, or [None] if empty. *)

val pop_min_exn : ('f, 'v) t -> 'f * 'v
(** Remove the earliest event and return its payload pair.  Check
    {!is_empty} (or read {!min_time_exn}) first; raises
    [Invalid_argument] on an empty queue. *)

val fire_min_exn : ('v -> unit, 'v) t -> unit
(** Remove the earliest event and call [fn v] — the engine's per-event
    fast path, with no option or tuple allocated.  The entry is removed
    and its payload slot scrubbed {e before} the call, so the callback
    may push into this very queue and the payload does not outlive the
    event.  Raises [Invalid_argument] on an empty queue. *)

val min_time_exn : ('f, 'v) t -> Time.t
(** Timestamp of the earliest event; raises [Invalid_argument] if empty. *)

val peek_time : ('f, 'v) t -> Time.t option
(** Timestamp of the earliest event without removing it. *)

val ready_count : ('f, 'v) t -> int
(** Number of events sharing the earliest timestamp (the "ready set").
    These are exactly the events whose relative order is a scheduling
    choice rather than a consequence of virtual time. *)

val pop_nth : ('f, 'v) t -> int -> (Time.t * 'f * 'v) option
(** [pop_nth q n] removes the [n]-th event (0-based, in insertion order)
    among those sharing the earliest timestamp; [n] is clamped to the ready
    set.  [pop_nth q 0] is {!pop}.  This is the choice-point primitive used
    by the model checker to explore reorderings of simultaneous events. *)

val length : ('f, 'v) t -> int
val is_empty : ('f, 'v) t -> bool

val high_water : ('f, 'v) t -> int
(** Deepest the queue has ever been (over the queue's whole life, or
    since {!reset_high_water}).  A cheap backlog-pressure gauge: updated
    by comparing the new size against the mark on every {!push}. *)

val reset_high_water : ('f, 'v) t -> unit
(** Restart the {!high_water} mark from the current length. *)

val clear : ('f, 'v) t -> unit

val trim : ('f, 'v) t -> unit
(** Release the capacity a past burst left behind: reallocate every lane
    to the smallest power of two at least twice {!length} (minimum 64),
    if that is smaller than the current capacity.  Pending events keep
    their [(time, sequence)] keys, so pop order is unchanged; the queue
    grows again on demand.  O(length). *)
