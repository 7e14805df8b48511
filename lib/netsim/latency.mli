(** Packet latency models.

    The paper's testbed is a quiet 100 Mb/s Ethernet: the hop latency
    distribution has a sharp peak (token-passing time peak density ≈ 51 µs,
    which includes protocol processing) and a rare long tail caused by OS
    scheduling.  {!calibrated} reproduces that shape. *)

type t =
  | Constant of Dsim.Time.Span.t
  | Uniform of { lo : Dsim.Time.Span.t; hi : Dsim.Time.Span.t }
  | Gaussian of { mu : Dsim.Time.Span.t; sigma : Dsim.Time.Span.t }
      (** truncated at 1 µs so latency is always positive *)
  | Mixture of (float * t) list
      (** weighted mixture; weights need not be normalized *)

val calibrated : wire:Dsim.Time.Span.t -> t
(** The testbed model: a Gaussian bulk centred on [wire] (sd 3 µs) with a
    3 % exponential-tail component (mean +150 µs) for scheduling stalls. *)

val default_wire : Dsim.Time.Span.t
(** 26 µs: one UDP hop including send/receive processing, calibrated so a
    4-node token rotation costs ≈ 4 × 51 µs as measured in the paper's
    reference [20] (each hop = wire + ≈ 25 µs token processing). *)

val wan : wire:Dsim.Time.Span.t -> t
(** Inter-site (shard-to-shard) link model for the hierarchical bridge:
    a Gaussian bulk around [wire] with a proportional spread and a 7 %
    congestion-tail component around 4 × [wire].  Distinct from
    {!calibrated} so intra-shard and inter-shard hops can be profiled
    independently. *)

val default_wan_wire : Dsim.Time.Span.t
(** 350 µs: one metro/regional WAN hop, ≈ 13 × the LAN wire time. *)

val sample : Dsim.Rng.t -> t -> Dsim.Time.Span.t
(** Draw a latency; always >= 1 µs. *)

type compiled
(** A model prepared for repeated draws: mixture weights, their total and
    the Gaussian parameters are unpacked once instead of on every draw. *)

val compile : t -> compiled

val draw : Dsim.Rng.t -> compiled -> Dsim.Time.Span.t
(** [draw rng (compile m)] consumes the same random numbers and returns
    the same latency as [sample rng m], draw for draw. *)
