module Time = Dsim.Time
module Span = Dsim.Time.Span
module E = Experiments

let us_of_span s = float_of_int (Span.to_us s)

let fig4 ppf rows =
  Format.fprintf ppf
    "Figure 4 (worked example, 1 'minute' = 1 simulated ms):@.";
  Format.fprintf ppf "%-6s %-9s %-12s %-12s %-12s@." "round" "replica"
    "pc (min)" "gc (min)" "offset (min)";
  List.iter
    (fun (r : E.fig4_row) ->
      Format.fprintf ppf "%-6d r%-8d %-12.2f %-12.2f %+-12.2f@." r.f4_round
        r.f4_replica r.f4_pc_min r.f4_gc_min r.f4_offset_min)
    rows;
  Format.fprintf ppf
    "paper expects offsets: round1 (0,-5,-15)  round2 (-15,-5,-10)  round3 \
     (-20,-15,-10)@."

let latency_pair ppf ~(with_cts : E.latency_run)
    ~(without_cts : E.latency_run) =
  Format.fprintf ppf
    "Figure 5 (probability density of end-to-end latency at the client):@.";
  Format.fprintf ppf "%-14s %-14s %-14s@." "latency (us)" "with CTS"
    "without CTS";
  let bins =
    max
      (Stats.Histogram.bin_count with_cts.histogram)
      (Stats.Histogram.bin_count without_cts.histogram)
  in
  for i = 0 to bins - 1 do
    let mid = Stats.Histogram.bin_mid with_cts.histogram i in
    let dw = Stats.Histogram.density with_cts.histogram i in
    let dwo = Stats.Histogram.density without_cts.histogram i in
    if dw > 0.0005 || dwo > 0.0005 then
      Format.fprintf ppf "%-14.0f %-14.4f %-14.4f@." mid dw dwo
  done;
  let m_w = Stats.Summary.mean with_cts.summary in
  let m_wo = Stats.Summary.mean without_cts.summary in
  Format.fprintf ppf "mean latency: with CTS %.1f us, without %.1f us@." m_w
    m_wo;
  Format.fprintf ppf
    "overhead of the consistent time service: %.1f us (paper: ~300 us, one \
     extra token rotation)@."
    (m_w -. m_wo)

let take n l = List.filteri (fun i _ -> i < n) l

let fig6_rounds = 20

let fig6a ppf (run : E.skew_run) =
  Format.fprintf ppf
    "Figure 6(a) (interval between clock operations, first %d rounds, us):@."
    fig6_rounds;
  Format.fprintf ppf "%-6s %-12s %-12s %-12s %-12s@." "round" "group"
    "local r1" "local r2" "local r3";
  let per_replica =
    Array.map
      (fun samples -> Array.of_list (take fig6_rounds samples))
      run.samples
  in
  for r = 1 to fig6_rounds - 1 do
    let gc_int =
      us_of_span
        (Time.diff per_replica.(0).(r).E.gc per_replica.(0).(r - 1).E.gc)
    in
    let local i =
      if r < Array.length per_replica.(i) then
        us_of_span
          (Time.diff per_replica.(i).(r).E.pc per_replica.(i).(r - 1).E.pc)
      else nan
    in
    Format.fprintf ppf "%-6d %-12.0f %-12.0f %-12.0f %-12.0f@." (r + 1) gc_int
      (local 0) (local 1) (local 2)
  done

let first_round_winner (run : E.skew_run) =
  (* the winner of round 1 is the replica whose offset after round 1 has the
     smallest magnitude (its own proposal was adopted, offset unchanged
     modulo its own clock error) *)
  let score i =
    match run.samples.(i) with
    | s :: _ -> abs (Span.to_ns s.E.offset)
    | [] -> max_int
  in
  let best = ref 0 in
  Array.iteri (fun i _ -> if score i < score !best then best := i) run.samples;
  !best

let fig6b ppf (run : E.skew_run) =
  let w = first_round_winner run in
  Format.fprintf ppf
    "Figure 6(b) (clock offset at the first-round winner, replica %d, us):@."
    (w + 1);
  Format.fprintf ppf "%-6s %-12s@." "round" "offset";
  List.iteri
    (fun i (s : E.round_sample) ->
      if i < fig6_rounds then
        Format.fprintf ppf "%-6d %+-12.0f@." s.E.round (us_of_span s.E.offset))
    run.samples.(w)

let fig6c ppf (run : E.skew_run) =
  Format.fprintf ppf
    "Figure 6(c) (normalized clocks per round, us since round 1):@.";
  Format.fprintf ppf "%-6s %-12s %-12s %-12s %-12s@." "round" "group"
    "local r1" "local r2" "local r3";
  let base =
    Array.map
      (fun samples ->
        match samples with s :: _ -> s.E.pc | [] -> Time.epoch)
      run.samples
  in
  let gc_base =
    match run.samples.(0) with s :: _ -> s.E.gc | [] -> Time.epoch
  in
  let arr = Array.map Array.of_list run.samples in
  for r = 0 to min (fig6_rounds - 1) (Array.length arr.(0) - 1) do
    let gc = us_of_span (Time.diff arr.(0).(r).E.gc gc_base) in
    let local i =
      if r < Array.length arr.(i) then
        us_of_span (Time.diff arr.(i).(r).E.pc base.(i))
      else nan
    in
    Format.fprintf ppf "%-6d %-12.0f %-12.0f %-12.0f %-12.0f@." (r + 1) gc
      (local 0) (local 1) (local 2)
  done;
  Format.fprintf ppf
    "drift of the group clock against real time: %.1f us/s (paper: group \
     clock runs slower than real time)@."
    (E.drift_slope run);
  Format.fprintf ppf
    "drift per CCS round: %.1f us/round (rate-independent; the us/s figure \
     scales with how fast rounds are issued)@."
    (E.drift_per_round run)

let msg_counts ppf (run : E.skew_run) =
  Format.fprintf ppf
    "CCS message counts (duplicate suppression, cf. paper's 1 / 9977 / 22):@.";
  Format.fprintf ppf "%-10s %-12s %-12s@." "replica" "CCS sent" "suppressed";
  Array.iteri
    (fun i sent ->
      Format.fprintf ppf "r%-9d %-12d %-12d@." (i + 1) sent
        run.ccs_suppressed.(i))
    run.ccs_sent;
  let total = Array.fold_left ( + ) 0 run.ccs_sent in
  Format.fprintf ppf
    "total sent: %d for %d rounds (paper: total = number of rounds; without \
     suppression it would be %d)@."
    total run.rounds_total
    (run.rounds_total * Array.length run.ccs_sent)

let drift_table ppf runs =
  Format.fprintf ppf "Drift-compensation ablation (paper §3.3):@.";
  Format.fprintf ppf "%-24s %-18s %-18s@." "strategy" "drift (us/s)"
    "drift (us/round)";
  List.iter
    (fun (name, run) ->
      Format.fprintf ppf "%-24s %+-18.1f %+-18.1f@." name (E.drift_slope run)
        (E.drift_per_round run))
    runs

let rollback_pair ppf ~(baseline : E.rollback_run) ~(cts : E.rollback_run) =
  Format.fprintf ppf
    "Roll-back on failover (paper §1's motivation; %d failovers each):@."
    baseline.failovers;
  Format.fprintf ppf "%-28s %-12s %-16s %-16s@." "clock service" "rollbacks"
    "max rollback" "max fwd jump";
  let row name (r : E.rollback_run) =
    Format.fprintf ppf "%-28s %-12d %-16s %-16s@." name r.client_rollbacks
      (Format.asprintf "%a" Span.pp r.client_max_rollback)
      (Format.asprintf "%a" Span.pp r.client_max_jump)
  in
  row "primary/backup [9],[3]" baseline;
  row "consistent time service" cts;
  Format.fprintf ppf
    "the group clock never runs backwards; the baseline does.@."

let group_size_table ppf rows =
  Format.fprintf ppf
    "CTS overhead vs replication degree (mean end-to-end latency, us):@.";
  Format.fprintf ppf "%-10s %-12s %-12s %-12s@." "replicas" "with CTS"
    "without" "overhead";
  List.iter
    (fun (n, (w : E.latency_run), (wo : E.latency_run)) ->
      let mw = Stats.Summary.mean w.summary in
      let mwo = Stats.Summary.mean wo.summary in
      Format.fprintf ppf "%-10d %-12.1f %-12.1f %-12.1f@." n mw mwo (mw -. mwo))
    rows;
  Format.fprintf ppf
    "the overhead stays around one token rotation, which itself grows with      the ring size@."

let token ppf (run : E.token_run) =
  Format.fprintf ppf
    "Token-passing time calibration (%d rotations; paper [20]: peak ~51 \
     us/hop):@."
    run.rotations;
  Format.fprintf ppf "per-hop: %a@." Stats.Summary.pp run.hop_summary;
  let mode = Stats.Histogram.mode_bin run.hop_histogram in
  Format.fprintf ppf "peak density at %.0f us/hop@."
    (Stats.Histogram.bin_mid run.hop_histogram mode)

let causal ppf (r : E.causal_run) =
  Format.fprintf ppf
    "Causality across groups (the paper's §5 proposal, implemented):@.";
  Format.fprintf ppf "  gap between the two group clocks:   %a@."
    Span.pp r.independent_gap;
  Format.fprintf ppf
    "  with the timestamp carried, B's reading follows A's: %b@." r.causal_ok;
  Format.fprintf ppf "  B's group clock stays monotone afterwards:          %b@."
    r.monotone_after

let recovery ppf (r : E.recovery_run) =
  Format.fprintf ppf "Recovery / new-replica integration (paper §3.2):@.";
  Format.fprintf ppf "  joiner clock initialized by special CCS round: %b@."
    r.joiner_initialized;
  Format.fprintf ppf "  joiner state identical to the group's:        %b@."
    r.joiner_state_matches;
  Format.fprintf ppf "  group clock monotone across the join:         %b@."
    r.group_clock_monotone
