(** Post-hoc diagnosis over a dumped flight-recorder window.

    The dump is a line-oriented text format (stable header
    ["# ctsim flight recorder v2"], one [R kind ts_us node a b] line per
    record, one [I inv first last count worst node at] line per
    {!Check} verdict) designed to travel inside a bug report; {!load_string}
    round-trips it, {!write_chrome_file} re-exports it through the
    {!Trace} Chrome exporter for Perfetto, and {!report} prints a
    human-readable causal timeline: records decoded via
    {!Recorder.kind_name}/{!Recorder.arg_names}, deliveries and drops
    matched back to their send using the network's per-(src, dst) FIFO
    contract, and each verdict reduced to a one-line {e suspect} —
    e.g. for a token-liveness verdict, the node that last accepted
    the token plus the first onward drop, which names the faulted
    hop.  A verdict's [at] is the global index of its witnessing
    record; when the window still holds that record, the timeline
    marks it. *)

type record = { kind : int; ts_us : int; node : int; a : int; b : int }

type window = {
  records : record array;  (** oldest first *)
  verdicts : Check.verdict list;
  w_total : int;  (** records ever emitted (pre-wrap) *)
  w_dropped : int;  (** records lost to ring wrap *)
}

(** {1 Dump / load} *)

val dump_string : Recorder.t -> Check.verdict list -> string
val dump_file : Recorder.t -> Check.verdict list -> string -> unit
val load_string : string -> (window, string) result
val load_file : string -> (window, string) result

(** {1 Re-export} *)

val to_trace : window -> Trace.t
val write_chrome_file : window -> string -> unit

(** {1 Diagnosis} *)

val sent_at : window -> int array
(** [sent_at w].(i) is the index of the send record matched to record
    [i] (a delivery or drop), or [-1]; matching is per-(src, dst) FIFO,
    with broadcast sends matched by source. *)

type suspect = {
  s_inv : string;
  s_desc : string;  (** one-line description of the faulted hop *)
  s_record : int option;  (** index of the pivotal record, if located *)
}

val suspect_of_verdict : window -> Check.verdict -> suspect
val suspects : window -> suspect list

val report : ?tail:int -> Format.formatter -> window -> unit
(** Verdicts, suspects, then the last [tail] (default 40) records as a
    decoded timeline with send-matching annotations and [<-- verdict] /
    [<-- suspect] markers (marked records before the tail are printed
    first). *)
