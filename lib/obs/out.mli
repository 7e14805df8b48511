(** The text emitter behind every file a flush writes: decimal ints and
    JSON strings appended to a [Buffer.t], spilled to a channel a block
    at a time.  A digit loop, not [string_of_int] or [Printf], because
    a flush formats millions of ints. *)

val int : Buffer.t -> int -> unit
(** Decimal, as [string_of_int] writes it. *)

val json_string : Buffer.t -> string -> unit
(** Quoted, with quotes, backslashes and control characters escaped. *)

val spill : out_channel -> Buffer.t -> unit
(** Write the buffer out and clear it once it holds 64 KiB or more;
    call it between lines and [Buffer.output_buffer] once at the end. *)
