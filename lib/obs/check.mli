(** One checker over the record stream.

    The paper's §3 guarantees and the online monitors are one fold over
    the [(kind, ts_us, node, a, b)] records of {!Recorder}, written in
    the shape of a TLA+ specification: the state variables are plain
    per-node and per-round tables, {!step} is one action per record
    kind, and a violation is a {!verdict} naming the first record that
    witnessed it.  The same fold runs in three places:

    - online, attached to a {!Sink} beside (or instead of) a recorder;
    - on every schedule the model checker explores: its harness attaches
      a fresh check to each measured run and reads {!verdicts} after
      {!finish};
    - in the black box: a dump carries the verdicts, and each verdict's
      [at] locates its witness in the dumped window.

    Properties:

    - [monotone]: per (node, thread), the group clock samples
      ([gc-sample]) never decrease (§3); worst = largest regression, µs.
    - [agreement]: every application [read] of one round of one ring
      carries the same value (§3); worst = largest difference, ns; node
      = the reader that disagreed with the round's first read.
    - [single-synchronizer]: judged by {!finish} (§4.3).  Every node
      that read and did not [crash] read rounds 1, 2, 3, … with one
      send-or-suppress decision per round read, or opened ([ccs-open])
      and not yet read (a [ccs-propose], or a [ccs-suppress] naming no
      round; one naming a round retracts the node's proposal of it), and
      each ring's unretracted proposals are at least its distinct rounds
      read.  worst = how far a count is off
      (0 for a sequence break); node = [-1] for a ring's count.
    - [skew-envelope]: the spread of [(group clock - simulated time)]
      offsets across live (non-stale) nodes stays within a configured
      bound (the §3 bounded-skew guarantee); worst = largest spread, µs.
    - [token-liveness]: once a first token has been sighted, tokens keep
      being sighted within [token_timeout_us] (the liveness the §12
      watchdogs restore); worst = silent gap, µs.  The alarm re-arms on
      the next token, so one loss episode is one occurrence however many
      records elapse inside it.
    - [membership-agreement]: every node reaching operational state in
      one Totem ring, identified by its [(rep, gen)], reports the same
      member count; worst = member-count difference.
    - [no-global-regression]: no gateway's global clock clamps a newer
      bridge agreement ([hier-clamp]); worst = how far it lay behind, µs.
    - [deterministic-election]: judged by {!finish}, on a settled run.
      Each ring that elected a gateway ([hier-elect]) last elected its
      lowest-numbered live member; node = the gateway, worst = the
      member it should have been.
    - [cross-shard-skew]: judged by {!finish}, on a settled run (gateway
      failover moves a shard's clock transiently).  The rings' offsets
      (their lowest live member's latest [gc-sample] minus its time)
      spread less than 5 ms; worst = the spread, µs.

    Properties are silent on streams without the records they read.
    Each has at most one verdict, updated in place. *)

type verdict = {
  inv : string;  (** property name, e.g. ["token-liveness"] *)
  at : int;
      (** index of the first witnessing record among the records this
          check has stepped (0 = the first); equal to the record's index
          in a {!Recorder} attached to the same sink from the start *)
  mutable first_us : int;
  mutable last_us : int;
  mutable count : int;
  mutable worst : int;
  mutable node : int;  (** node of the worst observation *)
}

type config = {
  skew_bound_us : int;  (** <= 0 disables [skew-envelope] *)
  token_timeout_us : int;  (** <= 0 disables [token-liveness] *)
  staleness_us : int;
      (** nodes whose last sample is older than this are excluded from
          the skew envelope *)
  rings : int array;
      (** the ring partition: node [n] is in ring [rings.(n)], nodes past
          the end in ring 0 ([[||]] = one ring).  CCS rounds are numbered
          per ring, so [agreement] and [single-synchronizer] are judged
          per ring; a hierarchy's shards are its rings *)
}

val default_config : config
(** Skew check disabled (the bound is scenario-specific), 10 ms token
    timeout, 5 ms staleness, one ring. *)

val properties : string list
(** Every property name, in the order listed above. *)

type t

val create : ?config:config -> unit -> t

val step : t -> kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit
(** Fold one record (same encoding as {!Recorder.emit}).  Allocates only
    when a node, round or thread is first seen or a verdict is first
    raised. *)

val finish : t -> unit
(** Judge the end-of-run properties ([single-synchronizer],
    [deterministic-election], [cross-shard-skew]).  Call once, after
    the last {!step}, on a run that has settled. *)

val fingerprint : t -> int
(** A hash of every [read] [(node, round, value)], each node's in read
    order and the nodes in id order: a run's identity. *)

val verdicts : t -> verdict list
(** In first-raised order. *)

val pp_verdict : Format.formatter -> verdict -> unit
