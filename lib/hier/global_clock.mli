(** Per-gateway global group-clock state machine.

    Tracks the highest agreed cross-shard clock value and round.  The
    clock is strictly monotone by construction: an [observe] that would
    move it backwards is clamped to the current value and counted as a
    regression attempt instead — the invariant the model checker enforces
    is that no such attempt happens while at least one holder of the
    previous agreed value is still alive (offers carry the max of the
    local estimate and this value, so agreement can only regress if every
    gateway that knew the old value is gone). *)

type t

val create : Dsim.Engine.t -> me:Netsim.Node_id.t -> t
(** The global clock of agent [me]; a clamped observation is a
    [hier-clamp] record on the engine's stream. *)

val value : t -> Dsim.Time.t option
(** Last agreed global clock value, if any round has completed. *)

val round : t -> int
(** Highest bridge round observed (0 before the first). *)

val observe : t -> round:int -> time:Dsim.Time.t -> Dsim.Time.t
(** Fold an agreed [(round, time)] into the state and return the adopted
    value: [time] if it does not regress, the previous value otherwise.
    An observation for a round older than the newest applied round is a
    reordered or duplicated agreement (the WAN's latency tail outruns the
    bridge period): it is ignored without counting a regression. *)

val updates : t -> int
val regressions : t -> int
(** How many [observe]s had to be clamped. *)
