(** The observability stream: an always-on, zero-allocation ring of
    compact int-encoded records.

    Every probe in the stack emits exactly one record per fact — event
    kind, simulated-µs timestamp, node, and two payload ints — into one
    flat [int array].  [emit] on the steady-state wrap path is five
    integer stores and two field writes: no boxing, no branch on
    capacity growth, nothing for the GC.  Every other view reads this
    stream: the Chrome trace ({!to_trace}), the metrics registry
    ([Metrics.of_recorder]), the {!Check} fold (fed the same records
    online) and the model checker's packet log.

    The record layout is an internal encoding; decode through
    {!kind_name} / {!kind_sub} / {!arg_names}. *)

type t

val stride : int
(** Ints per record (5). *)

val default_capacity : int
(** 65,536 records (~2.6 MB). *)

val create : ?capacity:int -> unit -> t
(** [capacity] is in records.  Raises [Invalid_argument] when <= 0. *)

val emit : t -> kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit
(** Append one record, overwriting the oldest once the ring is full.
    Allocation-free. *)

val capacity : t -> int
val total : t -> int
(** Records ever emitted (monotone; exceeds [capacity] after wrap). *)

val length : t -> int
(** Records currently held = [min total capacity]. *)

val dropped : t -> int
(** Records overwritten by wrap = [total - length]. *)

val clear : t -> unit

val iter :
  t ->
  (kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit) ->
  unit
(** Oldest to newest. *)

val to_trace : t -> Trace.t
(** Decode the window for {!Trace.write_chrome_file} (pid = node, tid =
    the kind's subsystem): [ccs-open]/[ccs-settle], [rpc-begin]/[rpc-end]
    and [bridge-open]/[bridge-close] become B/E spans named [ccs-round],
    [rpc] and [bridge-round]; every other record is an instant named by
    {!kind_name}.  An End whose Begin fell off the start of the window
    is dropped, so a wrapped ring still exports a valid trace.  A
    [ccs-round] End also carries the [offset_us] of the [ccs-offset]
    record emitted just before it. *)

(** {1 Record kinds}

    The kind determines the subsystem and the meaning of the payload
    ints; see {!arg_names}. *)

val k_step : int
val k_fiber_spawn : int
val k_fiber_switch : int
val k_send : int
val k_deliver : int
val k_drop : int
val k_token : int
val k_gather : int
val k_operational : int
val k_view : int
val k_ccs_open : int
val k_ccs_settle : int
val k_ccs_suppress : int
val k_ccs_discard : int
val k_gc_sample : int
val k_hier_round : int
val k_hier_correct : int
val k_hier_elect : int
val k_ccs_offset : int
(** Group-clock offset recomputed by a round ([offset_us],
    [adjustment_us]); only emitted when offset tracking is on, just
    before the round's [k_ccs_settle]. *)

val k_rpc_begin : int
val k_rpc_end : int
(** [latency_us] of the whole invocation and [timeout] (1 when it gave
    up). *)

val k_repl_request : int
val k_repl_checkpoint : int
(** [upto] and [applied]: 0 = checkpoint taken, 1 = state applied at a
    recovering replica. *)

val k_bridge_open : int
val k_bridge_close : int
(** A bridge round opened / closed by its coordinator
    ([round], [offers]). *)

val k_read : int
(** The application's group-clock read ([value_ns], [round]), emitted by
    the application itself (the model checker's harness, the hierarchy's
    readers) — the value it actually uses, which a buggy application may
    not have taken from the service. *)

val k_ccs_propose : int
(** A CCS message queued for multicast ([round], [proposal_ns]); the
    record's node is the would-be synchronizer.  A later [k_ccs_suppress]
    naming the same round retracts it (token-level duplicate
    suppression). *)

val k_crash : int
(** A node crashed (no payload). *)

val k_hier_clamp : int
(** A gateway's global clock clamped a newer bridge agreement that lay
    behind the value it holds ([round], [behind_us]: how far behind). *)

val kind_count : int

val kind_name : int -> string
val kind_sub : int -> Subsystem.t
val arg_names : int -> string * string
(** Names of the [a] and [b] payloads; [""] marks an unused payload. *)

val drop_b : reason:int -> pos:int -> int
(** The [b] payload of a [k_drop] record: the reason (0 = loss, 1 =
    partitioned, 2 = no port) packed with the message's batch position
    ([-1] = unbatched, which leaves [b] = [reason]). *)

val operational_b : members:int -> rep:int -> int
val operational_members : int -> int
val operational_rep : int -> int
(** The [b] payload of a [k_operational] record, whose [a] is the ring
    generation: the member count packed with the ring's representative,
    since a Totem ring is [(rep, gen)]; and its two halves. *)

val drop_reason_name : int -> string
(** The reason of a [k_drop] record's [b] payload: ["loss"],
    ["partitioned"] or ["no-port"]. *)

val args : kind:int -> a:int -> b:int -> (string * int) list
(** A record's named payloads, as the Chrome export and the postmortem
    timeline show them: {!arg_names} with unused payloads left out, and
    a drop's [b] split into [reason] and (when batched) [pos], an
    operational record's into [members] and [rep]. *)
