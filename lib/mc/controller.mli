(** Schedule controller.

    Owns both choice-point hooks of one simulation run — the engine's
    same-timestamp tie-breaker ({!Dsim.Engine.set_scheduler}) and the
    networks' per-packet delay perturbation
    ({!Netsim.Network.set_delay_hook}) — and drives them from a {!spec}:
    forced deviations (replaying or exploring a specific schedule), an
    optional seeded random walk on top, or neither (the default schedule).

    Every deviation actually applied is recorded, so a random walk that
    finds an invariant violation yields a deterministic repro: replay its
    {!applied} trace with {!replay_spec} and the run is bit-identical. *)

type random_cfg = {
  seed : int64;
  delay_prob : float;  (** per-packet probability of a one-quantum delay *)
  reorder_prob : float;
      (** per-tie probability of running a non-first same-time event *)
}

type spec = {
  forced : Schedule.t;
  random : random_cfg option;
  quantum : Dsim.Time.Span.t;  (** extra delay applied by [Delay] *)
}

val default_spec : spec
(** No deviations, no random walk, 200 µs quantum. *)

val replay_spec : ?quantum:Dsim.Time.Span.t -> Schedule.t -> spec
(** Deterministically replay exactly the given deviations. *)

type t

val create : Dsim.Engine.t -> spec -> t

val install : t -> unit
(** Install the engine hook: engine step 0 is the first step after. *)

val watch : t -> 'a Netsim.Network.t -> unit
(** Install the packet hook on one network; the networks a controller
    watches share one packet count. *)

val uninstall : t -> unit
val unwatch : 'a Netsim.Network.t -> unit

val applied : t -> Schedule.t
(** Deviations applied so far, in chronological order. *)

val steps : t -> int
(** Engine steps seen (choice points, including trivial ones). *)

val packets : t -> int
(** Packets seen by the delay hook. *)

val tie_steps : t -> (int * int) list
(** [(step, ready)] for every step that had [ready > 1] same-time events —
    the branching structure used by the bounded-exhaustive strategy. *)
