(** Runners for every measurement in the paper's evaluation (DESIGN.md's
    experiment index).  Each returns plain data; the bench harness and the
    CLI render it. *)

(** {1 E2 — Figure 5: end-to-end latency with and without the consistent
    time service} *)

type latency_run = {
  summary : Stats.Summary.t;  (** latency in microseconds *)
  histogram : Stats.Histogram.t;  (** Figure 5's probability density *)
}

val latency : ?seed:int64 -> ?invocations:int -> ?replicas:int ->
  ?totem_config:Totem.Config.t -> use_cts:bool -> unit -> latency_run
(** The §4.2 experiment (1): a client on [n0] invokes a remote method that
    returns the current time on a [replicas]-way actively replicated
    server; the end-to-end latency is measured at the client. *)

(** {1 E3-E6 / A1 — Figure 6 and drift: the clock-sequence experiment} *)

type round_sample = {
  round : int;
  real : Dsim.Time.t;
      (** simulation (real) time at which the clock-related operation was
          issued — the same instant [pc] was read, so (real, pc, gc) is a
          consistent sample (the group clock for the round settles one CCS
          delivery later) *)
  pc : Dsim.Time.t;  (** replica's physical clock at the round start *)
  gc : Dsim.Time.t;  (** group clock decided for the round *)
  offset : Dsim.Time.Span.t;  (** replica's clock offset after the round *)
}

type skew_run = {
  samples : round_sample list array;
      (** per replica (index 0 = the replica on node 1), in round order *)
  ccs_sent : int array;  (** CCS messages sent per replica (E3) *)
  ccs_suppressed : int array;
  ccs_rounds : int array;  (** CCS rounds completed per replica *)
  rounds_total : int;
  cluster : Cluster.t;  (** the finished world, for post-run inspection *)
}

type compensation =
  [ `No_compensation
  | `Mean_delay of int  (** microseconds added to the offset per round *)
  | `Anchored of float * int  (** gain, external-source max skew in µs *) ]

val skew :
  ?seed:int64 ->
  ?rounds:int ->
  ?replicas:int ->
  ?compensation:compensation ->
  ?obs:Obs.Sink.t ->
  unit ->
  skew_run
(** The §4.2 experiment (2): one client invocation triggers [rounds]
    clock-related operations at each replica, separated by random delays
    drawn from [{100; 200; 300}] µs (the testbed's 30k/60k/90k iteration
    loops).  Figures 6(a)-(c) and the drift ablation are all projections
    of the returned samples. *)

val drift_strategies : compensation list
(** A1's strategies, in table order: no compensation, mean-delay +50 µs,
    anchored with gain 0.1 (external source within 50 µs). *)

val compensation_name : compensation -> string
(** The strategy's row label in the drift table, e.g.
    ["mean-delay (+50 us)"]. *)

val drift_slope : skew_run -> float
(** Drift rate of the group clock against real time in µs per second
    (negative = group clock runs slow), fitted over all replicas' samples.
    Note that this figure scales with the operation rate: without
    compensation, each CCS round loses a bounded amount (roughly half the
    one-way message delay), so issuing rounds faster makes the per-second
    slope proportionally steeper.  Use {!drift_per_round} to compare runs
    with different think times. *)

val drift_per_round : skew_run -> float
(** Drift of the group clock in µs per completed round, fitted against
    the round index instead of real time.  Rate-independent: the per-round
    loss is a property of the algorithm and the message delays, not of how
    frequently the application reads the clock. *)

type drift_stats = {
  per_round_us : float;  (** {!drift_per_round}: the calibrated quantity *)
  per_second_us : float;
      (** {!drift_slope}; ≈ [per_round_us × rounds_per_sec].  Only
          comparable across workloads with the same issue rate — quoting it
          against a testbed that issues rounds 1000× slower is a unit
          error on the time axis. *)
  rounds_per_sec : float;  (** measured CCS round issue rate *)
}

val drift_stats : skew_run -> drift_stats
(** The fig6 drift audit in one record: the per-second slope is the
    per-round ratchet (bounded by the one-way message delay) multiplied by
    the round issue rate. *)

(** {1 A2 — roll-back / fast-forward on failover} *)

type rollback_run = {
  readings : int;  (** successful client clock readings *)
  failovers : int;
  client_rollbacks : int;
      (** consecutive client-visible readings that went backwards *)
  client_max_rollback : Dsim.Time.Span.t;
  client_max_jump : Dsim.Time.Span.t;
      (** largest forward jump between consecutive readings *)
}

val rollback :
  ?readings_per_phase:int ->
  style:Repl.Replica.style ->
  offset_tracking:bool ->
  unit ->
  rollback_run
(** Repeatedly read the clock through a 3-way replicated time server,
    crashing the current primary between phases (2 failovers).  Node [i]'s
    physical clock is (i−1)×300 ms behind node 1's.  With
    [offset_tracking = false] this is the prior-work primary/backup clock
    service ([9],[3]), which exhibits roll-back; with the consistent time
    service the readings never go back. *)

(** {1 M1 — token-rotation calibration} *)

type token_run = {
  hop_summary : Stats.Summary.t;  (** per-hop token passing time, µs *)
  hop_histogram : Stats.Histogram.t;
  rotations : int;
}

val token_calibration : ?rotations:int -> unit -> token_run
(** Measure token inter-arrival at one node of an idle 4-node ring; the
    per-hop time is the rotation time divided by the ring size (the paper's
    reference [20] reports a peak density at ≈ 51 µs). *)

(** {1 E1 — Figure 4 worked example} *)

type fig4_row = {
  f4_round : int;
  f4_replica : int;  (** 1, 2 or 3 *)
  f4_pc_min : float;  (** physical clock, in "minutes" past 8:00 *)
  f4_gc_min : float;  (** group clock decided for the round *)
  f4_offset_min : float;  (** offset after the round *)
}

val fig4 : unit -> fig4_row list
(** Re-enact §3.4's example: three replicas with clocks that read real time,
    performing three clock operations at the real times of Figure 4 (8:10,
    8:30, 8:50 plus the stated per-replica lags), 1 simulated millisecond
    per "minute".  The returned offsets must match the figure:
    round 1 → (0, -5, -15), round 2 → (-15, -5, -10),
    round 3 → (-20, -15, -10). *)

(** {1 E7 — §5 extension: causality across groups} *)

type causal_run = {
  independent_gap : Dsim.Time.Span.t;
      (** how far group B's clock trails group A's when read back to back
          with no timestamp carried *)
  causal_ok : bool;
      (** with the timestamp carried, B's reading >= A's earlier reading *)
  monotone_after : bool;  (** B's clock keeps advancing from the floor *)
}

val causal : unit -> causal_run
(** Two replicated time-server groups whose clocks are half a second
    apart; a client reads A, carries the timestamp, then reads B. *)

(** {1 A3 — recovery: adding a replica to a running group} *)

type recovery_run = {
  pre_join_readings : int Array.t;  (** per original replica *)
  joiner_initialized : bool;
  joiner_state_matches : bool;
      (** the joiner's application state equals the group's *)
  group_clock_monotone : bool;
      (** client-visible readings never went backwards across the join *)
}

val recovery : ?seed:int64 -> ?readings:int -> unit -> recovery_run
(** Start a 2-replica active group, stream clock readings through it, add a
    third replica mid-stream (§3.2's state transfer with the special CCS
    round), and keep reading.  Checks initialization, state equality and
    monotonicity. *)
