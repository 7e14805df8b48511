(** Text renderers for the experiment results (shared by the benchmark
    harness and the CLI). *)

val fig4 : Format.formatter -> Experiments.fig4_row list -> unit
(** The §3.4 trace: one row per (round, replica) with physical clock, group
    clock and offset in "minutes", plus the expected values. *)

val latency_pair :
  Format.formatter ->
  with_cts:Experiments.latency_run ->
  without_cts:Experiments.latency_run ->
  unit
(** Figure 5: the two latency probability-density columns side by side and
    the measured overhead. *)

val fig6a : Format.formatter -> Experiments.skew_run -> unit
(** Figure 6(a): interval between clock operations per replica (group clock
    and local physical clocks), first 20 rounds. *)

val first_round_winner : Experiments.skew_run -> int
(** Replica index (0-based) of the first round's winning synchronizer —
    the replica whose post-round-1 offset has the smallest magnitude.
    Its trace events carry [pid = index + 1] (node 0 is the client).
    Exposed for the observability tests, which cross-check the winner's
    per-round adjustment against the obs [ccs-round] events. *)

val fig6b : Format.formatter -> Experiments.skew_run -> unit
(** Figure 6(b): offset evolution at the winner of the first round, first
    20 rounds. *)

val fig6c : Format.formatter -> Experiments.skew_run -> unit
(** Figure 6(c): normalized physical clocks and group clock per round,
    first 20 rounds. *)

val msg_counts : Format.formatter -> Experiments.skew_run -> unit
(** §4.3's duplicate-suppression counts: CCS messages sent per node. *)

val drift_table :
  Format.formatter -> (string * Experiments.skew_run) list -> unit
(** A1: drift slope per compensation strategy. *)

val rollback_pair :
  Format.formatter ->
  baseline:Experiments.rollback_run ->
  cts:Experiments.rollback_run ->
  unit
(** A2: roll-back behaviour of the prior-work baseline vs the consistent
    time service. *)

val group_size_table :
  Format.formatter ->
  (int * Experiments.latency_run * Experiments.latency_run) list ->
  unit
(** A4: CTS overhead as a function of the replication degree — rows of
    (replicas, with CTS, without CTS). *)

val token : Format.formatter -> Experiments.token_run -> unit
(** M1: token-passing-time calibration against the paper's ≈51 µs peak. *)

val recovery : Format.formatter -> Experiments.recovery_run -> unit
(** A3: state-transfer correctness summary. *)

val causal : Format.formatter -> Experiments.causal_run -> unit
(** E7: causal group-clock timestamps across groups (§5 extension). *)
