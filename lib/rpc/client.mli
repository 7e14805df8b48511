(** RPC client (the paper's unreplicated CORBA client).

    The client occupies its own (singleton) group, multicasts requests to
    the server group over a connection, and accepts the first matching
    reply, suppressing the duplicates that active replication produces.
    Invocations can be timed (the paper's motivating "timed remote method
    invocations"). *)

type t

exception Timeout

val create :
  Dsim.Engine.t ->
  endpoint:Gcs.Endpoint.t ->
  my_group:Gcs.Group_id.t ->
  server_group:Gcs.Group_id.t ->
  unit ->
  t
(** Joins [my_group] on the endpoint to receive replies.  The connection
    identifier is derived from the two group ids. *)

val invoke :
  ?timeout:Dsim.Time.Span.t ->
  ?retries:int ->
  t ->
  op:string ->
  arg:string ->
  string
(** Perform a remote method invocation and block (fiber) until the first
    reply arrives.  With a [timeout], each attempt that expires is retried
    up to [retries] times (default 0) — re-sending with the same sequence
    number, so the replicas' duplicate-detection cache keeps the invocation
    exactly-once even when a reply was lost to a crash.

    An attempt started at [s] has the deadline [s + timeout] (a negative
    [timeout] counts as zero).  It succeeds iff a reply is delivered
    strictly before that instant; a reply delivered at the deadline
    itself loses.  Each retry starts at the previous attempt's deadline,
    so an invocation started at [s] that nobody answers raises {!Timeout}
    at exactly [s + (retries + 1) * timeout], however many other calls
    the client has made or has in flight.  While a retry is outstanding,
    a reply to an earlier attempt answers it (they share the sequence
    number).  After {!Timeout}, the first late reply is dropped without
    being counted by {!duplicate_replies}; further copies are counted. *)

val invoke_timed :
  ?timeout:Dsim.Time.Span.t ->
  ?retries:int ->
  t ->
  op:string ->
  arg:string ->
  string * Dsim.Time.Span.t
(** Like {!invoke} but also returns the end-to-end latency measured at the
    client with its local clock, as in the paper's §4.2 experiment (1). *)

val observe_timestamp : t -> Dsim.Time.t -> unit
(** Merge an externally learned group-clock timestamp into this client's
    causal session (e.g. carried over from a client of another group). *)

val last_timestamp : t -> Dsim.Time.t option
(** The highest group-clock timestamp carried by any reply this client has
    received.  It is forwarded with every subsequent request, so a clock
    read that causally follows this client's earlier interaction with
    another group is never smaller (the paper's §5 extension). *)

val requests_sent : t -> int
val duplicate_replies : t -> int
