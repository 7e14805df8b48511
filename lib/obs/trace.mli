(** The Chrome trace-event writer, the span buffer it also serves, and
    the validator [ctsim trace-check] and CI run on what it writes.

    {!write_chrome} is the one writer.  Its events carry a timestamp in
    integer nanoseconds, the replica identity as [pid] and the
    {!Subsystem} as [tid], so a file loads directly into Perfetto /
    [chrome://tracing] with one process row per replica and one named
    thread row per subsystem.  Two sources feed it: a run's record ring,
    decoded by {!Recorder.chrome_events}, and the span buffer {!t}, in
    which a benchmark harness times its own phases. *)

type phase = Begin | End | Instant

type source =
  (ph:phase -> ts_ns:int -> pid:int -> sub:Subsystem.t -> name:string ->
   args:(string * int) list -> unit) -> unit
(** Hands every event to its argument, oldest first; [ts_ns] >= 0. *)

val write_chrome :
  ?process_name:(int -> string) -> out_channel -> source -> unit
(** Write one Chrome trace-event JSON document
    ([{"traceEvents": [...]}]), streaming: the source runs twice, first
    to name one process per [pid] ([process_name], default
    ["replica <pid>"]) and one thread per (pid, subsystem) row in use,
    then to write the events.  [ts] is in microseconds with three
    decimals, so nanosecond order survives. *)

(** {2 The span buffer} *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity is 1,000,000 events. *)

val span_begin :
  t -> ts_ns:int -> pid:int -> sub:Subsystem.t -> name:string ->
  args:(string * int) list -> unit

val span_end :
  t -> ts_ns:int -> pid:int -> sub:Subsystem.t -> name:string ->
  args:(string * int) list -> unit

val length : t -> int
val dropped : t -> int
(** Events rejected because the buffer hit [capacity]. *)

val write_chrome_file : ?process_name:(int -> string) -> t -> string -> unit
(** {!write_chrome} over the buffer, into a new file. *)

(** {2 Validation}

    A dependency-free JSON reader plus the schema checks CI runs against
    emitted traces. *)

type summary = {
  v_events : int;  (** non-metadata trace events *)
  v_pids : int;
  v_subsystems : string list;  (** distinct thread names, sorted *)
}

val validate_string : string -> (summary, string) result
(** Checks that the input is well-formed JSON by the grammar (a [\u]
    escape has four hex digits, a number neither starts with [+] or [.]
    nor ends with [.], a string holds no raw control character), that
    it carries a [traceEvents] array whose events have [ph]/[pid]/[tid]
    (and [ts] for non-metadata phases), that timestamps are
    non-decreasing per [(pid, tid)] and that no End closes an unopened
    span (spans still open when the capture ends are allowed). *)

val validate_file : string -> (summary, string) result
