(* ctsim — command-line driver for the consistent-time-service simulator.

   Each subcommand runs one of the paper's experiments with adjustable
   parameters and prints the same series the paper reports.  See DESIGN.md
   for the experiment index. *)

module E = Scenario.Experiments
module R = Scenario.Report

let ppf = Format.std_formatter

open Cmdliner

let seed =
  let doc = "Root seed of the deterministic simulation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let seed64 s = Int64.of_int s

let replicas =
  let doc = "Number of server replicas." in
  Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N" ~doc)

(* Observability flags shared by run / hier / explore, so the three
   subcommands accept the same set (documented per command). *)

let metrics_file =
  let doc = "Write the metrics-registry snapshot as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let attrib_flag =
  let doc =
    "Collect wall-time attribution (per-subsystem probe self time) and \
     print the table at exit."
  in
  Arg.(value & flag & info [ "attrib" ] ~doc)

let dump_on_exit =
  let doc =
    "Flush the flight-recorder window at exit to $(docv).flight.txt \
     (postmortem dump, read with $(b,ctsim postmortem)) and \
     $(docv).flight.json (Chrome trace, check with $(b,ctsim \
     trace-check)).  Without this flag the window is flushed only when \
     the run's check raised a verdict.  The window is the run's \
     record stream: the last --trace-capacity records for $(b,run), the \
     last 1,000,000 for $(b,hier) with --trace or --metrics, else the \
     last 65,536."
  in
  Arg.(
    value & opt (some string) None & info [ "dump-on-exit" ] ~docv:"PREFIX" ~doc)

(* Trace and metrics are read from a ring: say so when it overflowed,
   since both then cover only the records it still holds. *)
let warn_overwritten ?(hint = "") overwritten =
  if overwritten > 0 then
    Format.fprintf ppf
      "warning: the first %d record(s) were overwritten; trace and metrics \
       cover only the rest of the run%s@."
      overwritten hint

let write_metrics_opt metrics = function
  | Some f ->
      Out_channel.with_open_text f (fun oc ->
          output_string oc (Obs.Metrics.to_json metrics);
          output_char oc '\n');
      Format.fprintf ppf "wrote %s@." f
  | None -> ()

let print_attrib_opt = function
  | Some a -> Format.fprintf ppf "@.wall-time attribution:@.%a@." Obs.Attrib.pp a
  | None -> ()

(* The always-on black box: every run of these subcommands carries a
   recorder and a check (the cost bench/main.ml's OBS section measures),
   and the window hits disk when the operator asked for it or when the
   check saw something wrong. *)
let flush_flight ~prefix recorder check =
  Obs.Check.finish check;
  let verdicts = Obs.Check.verdicts check in
  (match verdicts with
  | [] -> Format.fprintf ppf "check: no verdicts@."
  | vs ->
      Format.fprintf ppf "check: %d verdict(s):@." (List.length vs);
      List.iter (fun v -> Format.fprintf ppf "  %a@." Obs.Check.pp_verdict v) vs);
  match (prefix, verdicts) with
  | None, [] -> ()
  | _ ->
      let prefix = Option.value prefix ~default:"incident" in
      let txt = prefix ^ ".flight.txt" and json = prefix ^ ".flight.json" in
      Obs.Postmortem.dump_file recorder verdicts txt;
      Obs.Trace.write_chrome_file (Obs.Recorder.to_trace recorder) json;
      Format.fprintf ppf
        "wrote %s and %s: flight window, %d record(s) held of %d emitted \
         (diagnose with `ctsim postmortem %s`)@."
        txt json
        (Obs.Recorder.length recorder)
        (Obs.Recorder.total recorder)
        txt

(* ------------------------------------------------------------------ *)

let fig4_cmd =
  let run () = R.fig4 ppf (E.fig4 ()) in
  Cmd.v
    (Cmd.info "fig4"
       ~doc:"Re-enact the worked example of the paper's Figure 4 (section 3.4)")
    Term.(const run $ const ())

let fig5_cmd =
  let invocations =
    let doc = "Remote method invocations per run." in
    Arg.(value & opt int 10_000 & info [ "invocations"; "n" ] ~docv:"N" ~doc)
  in
  let run seed replicas invocations =
    let with_cts =
      E.latency ~seed:(seed64 seed) ~invocations ~replicas ~use_cts:true ()
    in
    let without_cts =
      E.latency ~seed:(seed64 seed) ~invocations ~replicas ~use_cts:false ()
    in
    R.latency_pair ppf ~with_cts ~without_cts
  in
  Cmd.v
    (Cmd.info "fig5"
       ~doc:
         "Probability density of the end-to-end latency with and without \
          the consistent time service (Figure 5)")
    Term.(const run $ seed $ replicas $ invocations)

let rounds_arg default =
  let doc = "Clock-related operations per replica." in
  Arg.(value & opt int default & info [ "rounds" ] ~docv:"N" ~doc)

let show_arg =
  let doc = "Rounds to print in the per-round tables." in
  Arg.(value & opt int 20 & info [ "show" ] ~docv:"N" ~doc)

let fig6_cmd =
  let run seed replicas rounds show =
    let r = E.skew ~seed:(seed64 seed) ~rounds ~replicas () in
    R.fig6a ppf r ~rounds:show;
    Format.fprintf ppf "@.";
    R.fig6b ppf r ~rounds:show;
    Format.fprintf ppf "@.";
    R.fig6c ppf r ~rounds:show
  in
  Cmd.v
    (Cmd.info "fig6"
       ~doc:
         "Skew and drift of the group clock: intervals, offset evolution, \
          normalized clocks (Figure 6)")
    Term.(const run $ seed $ replicas $ rounds_arg 10_000 $ show_arg)

let msgcounts_cmd =
  let run seed replicas rounds =
    R.msg_counts ppf (E.skew ~seed:(seed64 seed) ~rounds ~replicas ())
  in
  Cmd.v
    (Cmd.info "msgcounts"
       ~doc:
         "CCS messages sent per node under duplicate suppression (section \
          4.3)")
    Term.(const run $ seed $ replicas $ rounds_arg 10_000)

let drift_cmd =
  let gain =
    let doc = "Gain of the anchored compensation strategy." in
    Arg.(value & opt float 0.1 & info [ "gain" ] ~docv:"G" ~doc)
  in
  let mean_delay =
    let doc = "Mean-delay compensation in microseconds." in
    Arg.(value & opt int 150 & info [ "mean-delay" ] ~docv:"US" ~doc)
  in
  let run seed rounds gain mean_delay =
    let s c = E.skew ~seed:(seed64 seed) ~rounds ~compensation:c () in
    R.drift_table ppf
      [
        ("no compensation", s `No_compensation);
        ( Printf.sprintf "mean-delay (+%d us)" mean_delay,
          s (`Mean_delay mean_delay) );
        ( Printf.sprintf "anchored (gain %g)" gain,
          s (`Anchored (gain, 50)) );
      ]
  in
  Cmd.v
    (Cmd.info "drift"
       ~doc:"Drift-compensation strategies ablation (section 3.3)")
    Term.(const run $ seed $ rounds_arg 2_000 $ gain $ mean_delay)

let rollback_cmd =
  let skew_ms =
    let doc = "Physical-clock skew per backup in milliseconds (behind)." in
    Arg.(value & opt int 300 & info [ "skew-ms" ] ~docv:"MS" ~doc)
  in
  let run seed replicas skew_ms =
    let offs i = -1000 * skew_ms * (i - 1) in
    let go offset_tracking =
      E.rollback ~seed:(seed64 seed) ~replicas
        ~style:Repl.Replica.Semi_active ~offset_tracking
        ~clock_offset_us:offs ()
    in
    R.rollback_pair ppf ~baseline:(go false) ~cts:(go true)
  in
  Cmd.v
    (Cmd.info "rollback"
       ~doc:
         "Clock roll-back on primary failover: prior-work baseline vs the \
          consistent time service (section 1)")
    Term.(const run $ seed $ replicas $ skew_ms)

let token_cmd =
  let rotations =
    let doc = "Token rotations to sample." in
    Arg.(value & opt int 10_000 & info [ "rotations" ] ~docv:"N" ~doc)
  in
  let nodes =
    let doc = "Ring size." in
    Arg.(value & opt int 4 & info [ "nodes" ] ~docv:"N" ~doc)
  in
  let run seed rotations nodes =
    R.token ppf (E.token_calibration ~seed:(seed64 seed) ~rotations ~nodes ())
  in
  Cmd.v
    (Cmd.info "token"
       ~doc:"Token-passing-time calibration of the simulated testbed")
    Term.(const run $ seed $ rotations $ nodes)

let recovery_cmd =
  let readings =
    let doc = "Client readings across the join." in
    Arg.(value & opt int 40 & info [ "readings" ] ~docv:"N" ~doc)
  in
  let run seed readings =
    R.recovery ppf (E.recovery ~seed:(seed64 seed) ~readings ())
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:"Add a replica to a running group (state transfer, section 3.2)")
    Term.(const run $ seed $ readings)

let causal_cmd =
  let run seed = R.causal ppf (E.causal ~seed:(seed64 seed) ()) in
  Cmd.v
    (Cmd.info "causal"
       ~doc:
         "Causal group-clock timestamps across two replicated groups           (section 5's proposed extension)")
    Term.(const run $ seed)

let run_cmd =
  let trace_file =
    let doc =
      "Write the run's span trace to $(docv) in Chrome trace-event JSON \
       (load it in Perfetto or chrome://tracing; ts is simulated \
       microseconds, one process row per node, one thread row per \
       subsystem)."
    in
    Arg.(value & opt string "trace.json" & info [ "trace"; "o" ] ~docv:"FILE" ~doc)
  in
  let steps =
    let doc =
      "Record one step record per engine callback too (per-step engine \
       rows; traces get very large)."
    in
    Arg.(value & flag & info [ "steps" ] ~doc)
  in
  let capacity =
    let doc =
      "Capacity of the run's record stream.  The stream is a ring: an \
       over-full run keeps the $(i,last) $(docv) records, so the trace \
       starts mid-run and the metrics count that window only."
    in
    Arg.(value & opt int 1_000_000 & info [ "trace-capacity" ] ~docv:"N" ~doc)
  in
  let run seed replicas rounds trace_file metrics_file steps capacity attrib
      dump =
    let recorder = Obs.Recorder.create ~capacity () in
    let check = Obs.Check.create () in
    let sink = Obs.Sink.create () in
    Obs.Sink.set_recorder sink (Some recorder);
    Obs.Sink.set_check sink (Some check);
    Obs.Sink.set_steps sink steps;
    let attrib = if attrib then Some (Obs.Attrib.create ()) else None in
    Obs.Sink.set_attrib sink attrib;
    let r = E.skew ~seed:(seed64 seed) ~rounds ~replicas ~obs:sink () in
    (* Node 0 hosts the client; experiment replica [k] is node [k+1]. *)
    let process_name pid =
      if pid = 0 then "client (node 0)"
      else Printf.sprintf "replica %d (node %d)" (pid - 1) pid
    in
    let trace = Obs.Recorder.to_trace recorder in
    Obs.Trace.write_chrome_file ~process_name trace trace_file;
    let subs =
      String.concat ", "
        (List.map Obs.Subsystem.name (Obs.Trace.subsystems trace))
    in
    Format.fprintf ppf "wrote %s: %d event(s) across %d subsystem(s): %s@."
      trace_file (Obs.Trace.length trace)
      (List.length (Obs.Trace.subsystems trace))
      subs;
    warn_overwritten ~hint:" (raise --trace-capacity)"
      (Obs.Recorder.dropped recorder);
    let eng = r.E.cluster.Scenario.Cluster.eng in
    let hwm = Dsim.Engine.queue_high_water eng in
    let metrics =
      Obs.Metrics.of_recorder ~engine_events:(Dsim.Engine.steps eng) recorder
    in
    Obs.Metrics.gauge metrics "event_queue_hwm" := float_of_int hwm;
    let c k = Obs.Metrics.get metrics k in
    Format.fprintf ppf
      "ccs: %d round(s), %d win(s), %d suppressed, %d discard(s)@."
      (c Obs.Metrics.Ccs_rounds) (c Obs.Metrics.Ccs_wins)
      (c Obs.Metrics.Ccs_suppressed)
      (c Obs.Metrics.Ccs_discards);
    Format.fprintf ppf "net: %d sent, %d delivered, %d dropped@."
      (c Obs.Metrics.Net_sent)
      (c Obs.Metrics.Net_delivered)
      (c Obs.Metrics.Net_dropped);
    Format.fprintf ppf "engine: event-queue high water %d@." hwm;
    write_metrics_opt metrics metrics_file;
    print_attrib_opt attrib;
    flush_flight ~prefix:dump recorder check
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the clock-sequence experiment with a recorder on the record \
          stream and dump a Perfetto-loadable trace plus a metrics \
          snapshot, both read from that stream; the check rides \
          along (see --dump-on-exit)")
    Term.(
      const run $ seed $ replicas $ rounds_arg 200 $ trace_file
      $ metrics_file $ steps $ capacity $ attrib_flag $ dump_on_exit)

let trace_check_cmd =
  let file =
    let doc = "Chrome trace-event JSON file to validate." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    match Obs.Trace.validate_file file with
    | Ok s ->
        Format.fprintf ppf
          "%s: OK — %d event(s), %d process(es), subsystems: %s@." file
          s.Obs.Trace.v_events s.Obs.Trace.v_pids
          (String.concat ", " s.Obs.Trace.v_subsystems)
    | Error e ->
        Format.eprintf "%s: INVALID — %s@." file e;
        exit 1
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate an emitted trace: well-formed JSON, the trace-event \
          schema, and per-thread timestamp monotonicity")
    Term.(const run $ file)

let explore_cmd =
  let strategy =
    let doc = "Exploration strategy: $(b,random) or $(b,bounded)." in
    Arg.(value & opt string "random" & info [ "strategy" ] ~docv:"S" ~doc)
  in
  let budget =
    let doc = "Number of schedules to explore." in
    Arg.(value & opt int 500 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let depth =
    let doc = "Max deviations per schedule for the bounded strategy." in
    Arg.(value & opt int 1 & info [ "depth" ] ~docv:"N" ~doc)
  in
  let crash =
    let doc = "Crash the last replica halfway through the run." in
    Arg.(value & flag & info [ "crash" ] ~doc)
  in
  let quantum_us =
    let doc = "Packet-delay quantum in microseconds." in
    Arg.(value & opt int 200 & info [ "quantum-us" ] ~docv:"US" ~doc)
  in
  let delay_prob =
    let doc = "Per-packet delay probability (random strategy)." in
    Arg.(value & opt float 0.01 & info [ "delay-prob" ] ~docv:"P" ~doc)
  in
  let reorder_prob =
    let doc = "Same-time-event reorder probability (random strategy)." in
    Arg.(value & opt float 0.25 & info [ "reorder-prob" ] ~docv:"P" ~doc)
  in
  let keep_going =
    let doc = "Keep exploring after the first violation." in
    Arg.(value & flag & info [ "keep-going" ] ~doc)
  in
  let jobs =
    let doc =
      "Worker domains exploring schedules in parallel.  Violations found \
       and the distinct-schedule count are independent of $(docv)."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let trace_out =
    let doc =
      "On a violation, replay the shrunk counterexample with a recorder \
       on its record stream and write the stream as a Chrome trace to \
       $(docv) (next to the packet log)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let metrics_out =
    let doc =
      "On a violation, write the metrics snapshot of the shrunk \
       counterexample's replay as JSON to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let flight_out =
    let doc =
      "On a violation, write the counterexample's attached flight-recorder \
       window (its black box) to $(docv), in the format $(b,ctsim \
       postmortem) reads."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let run seed replicas strategy budget depth rounds crash quantum_us
      delay_prob reorder_prob keep_going jobs trace_out metrics_out flight_out
      attrib =
    let strategy =
      match Mc.Strategy.of_string strategy with
      | Some (Mc.Strategy.Random _) ->
          Mc.Strategy.Random { delay_prob; reorder_prob }
      | Some (Mc.Strategy.Bounded _) -> Mc.Strategy.Bounded { depth }
      | None ->
          Format.eprintf "ctsim: unknown strategy %S@." strategy;
          exit 2
    in
    if replicas < 2 then begin
      Format.eprintf "ctsim: explore needs at least 2 replicas@.";
      exit 2
    end;
    if jobs < 1 then begin
      Format.eprintf "ctsim: --jobs must be >= 1@.";
      exit 2
    end;
    (* Oversubscribing domains never helps: workers are CPU-bound, and
       extra domains only add GC synchronization.  Results are identical
       at any job count, so capping is safe. *)
    let cores = Domain.recommended_domain_count () in
    let jobs =
      if jobs > cores then begin
        Format.eprintf
          "ctsim: --jobs %d exceeds the %d available core(s); using %d@."
          jobs cores cores;
        cores
      end
      else jobs
    in
    (* Attribution of the exploration itself (discovery runs on this
       domain when --jobs 1, plus all confirm/shrink replays, which are
       always sequential on the calling domain). *)
    let attrib = if attrib then Some (Obs.Attrib.create ()) else None in
    let attr_sink =
      match attrib with
      | None -> None
      | Some a ->
          let s = Obs.Sink.create () in
          Obs.Sink.set_attrib s (Some a);
          Some s
    in
    let cfg =
      {
        Mc.Harness.default with
        Mc.Harness.replicas;
        rounds;
        seed = seed64 seed;
        crash_at_round = (if crash then Some (rounds / 2) else None);
        sink = attr_sink;
      }
    in
    let report =
      Mc.Explore.explore ~strategy ~budget ~quantum_us
        ~stop_at_first:(not keep_going) ~jobs cfg
    in
    Format.fprintf ppf "%a@." Mc.Explore.pp_report report;
    (match (report.Mc.Explore.violations, trace_out, metrics_out) with
    | v :: _, trace_out, metrics_out
      when trace_out <> None || metrics_out <> None ->
        let trace, metrics, overwritten =
          Mc.Explore.trace_violation ~quantum_us cfg v
        in
        (match trace_out with
        | Some file ->
            (* In the model-check harness every node runs a replica. *)
            let process_name pid = Printf.sprintf "replica %d" pid in
            Obs.Trace.write_chrome_file ~process_name trace file;
            Format.fprintf ppf
              "wrote %s: span trace of the minimal counterexample (%d \
               event(s))@."
              file (Obs.Trace.length trace)
        | None -> ());
        warn_overwritten overwritten;
        write_metrics_opt metrics metrics_out
    | [], Some _, _ | [], _, Some _ ->
        Format.fprintf ppf "no violation, no counterexample trace written@."
    | _ -> ());
    (match (report.Mc.Explore.violations, flight_out) with
    | v :: _, Some file ->
        Out_channel.with_open_text file (fun oc ->
            output_string oc v.Mc.Explore.blackbox);
        Format.fprintf ppf
          "wrote %s: flight window of the minimal counterexample (diagnose \
           with `ctsim postmortem %s`)@."
          file file
    | [], Some _ ->
        Format.fprintf ppf "no violation, no flight window written@."
    | _, None -> ());
    print_attrib_opt attrib;
    if report.Mc.Explore.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check the group clock: drive many event interleavings \
          through the simulator and judge each with the stream's check \
          (monotonicity, agreement, single synchronizer, liveness and \
          membership)")
    Term.(
      const run $ seed $ replicas $ strategy $ budget $ depth $ rounds_arg 12
      $ crash $ quantum_us $ delay_prob $ reorder_prob $ keep_going $ jobs
      $ trace_out $ metrics_out $ flight_out $ attrib_flag)

(* ------------------------------------------------------------------ *)

let hier_cmd =
  let module CH = Scenario.Cluster_hier in
  let module Span = Dsim.Time.Span in
  let run seed shards shard_size duration_ms mode crash_shard trace_file
      metrics_file attrib dump =
    let mode =
      match mode with
      | "star" -> Hier.Gateway.Star
      | "ring" -> Hier.Gateway.Ring
      | m ->
          Format.fprintf ppf "unknown --mode %S (star|ring)@." m;
          exit 2
    in
    let topo = Hier.Topology.create ~shards ~shard_size in
    let clock_config i =
      {
        Clock.Hwclock.default_config with
        offset =
          Span.of_ms (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
      }
    in
    let sink = Obs.Sink.create () in
    (* A trace or metrics snapshot reads the run from the stream, so it
       gets a big ring (and a warning if even that wraps); the flight
       recorder alone keeps the default window. *)
    let traced = trace_file <> None || metrics_file <> None in
    let recorder =
      if traced then Obs.Recorder.create ~capacity:1_000_000 ()
      else Obs.Recorder.create ()
    in
    (* CCS rounds are numbered per shard ring, so the check judges each
       shard as its own ring. *)
    let check =
      Obs.Check.create
        ~config:
          { Obs.Check.default_config with rings = Hier.Topology.rings topo }
        ()
    in
    Obs.Sink.set_recorder sink (Some recorder);
    Obs.Sink.set_check sink (Some check);
    let attrib = if attrib then Some (Obs.Attrib.create ()) else None in
    Obs.Sink.set_attrib sink attrib;
    let t =
      CH.create ~seed:(seed64 seed) ~clock_config
        ~gateway_config:{ Hier.Gateway.default_config with Hier.Gateway.mode }
        ~shards ~shard_size ~obs:sink ()
    in
    Format.fprintf ppf
      "%d replicas (%d shards x %d), %s bridge, shard s clocks start s ms \
       behind@."
      (Hier.Topology.replicas topo)
      shards shard_size
      (match mode with Hier.Gateway.Star -> "star" | Hier.Gateway.Ring -> "ring");
    (* Minor words are a deterministic count per seed and build, so the
       formation's allocation can be gated without timing anything. *)
    let words0 = Gc.minor_words () in
    CH.start_all t;
    let formation_words = int_of_float (Gc.minor_words () -. words0) in
    Format.fprintf ppf "rings and groups formed at t=%d us; initial skew %d us@."
      (Dsim.Time.to_us (Dsim.Engine.now t.CH.eng))
      (Span.to_us (CH.cross_shard_skew t));
    Format.fprintf ppf "formation: %d events, %d minor words@."
      (Dsim.Engine.steps t.CH.eng) formation_words;
    (* The built world's size, measured as ctsbench measures [world_mb]:
       the live heap after a full collection, less the recorder's ring,
       which belongs to the observer rather than the world. *)
    Gc.full_major ();
    let world_words =
      (Gc.stat ()).Gc.live_words - Obj.reachable_words (Obj.repr recorder)
    in
    let world_mb = float_of_int (world_words * (Sys.word_size / 8)) /. 1e6 in
    Format.fprintf ppf "world: %.1f MB live after formation@." world_mb;
    CH.start_readers t;
    let slice = Span.of_ms 10 in
    let slices = max 1 (duration_ms / 10) in
    Format.fprintf ppf "@.%-10s %-12s %-10s %-10s %-8s %s@." "t(ms)"
      "skew(us)" "neighbor" "agreed" "regr" "ccs-rounds";
    for k = 1 to slices do
      CH.run_for t slice;
      (match crash_shard with
      | Some s when k = slices / 2 -> (
          match CH.crash_gateway t s with
          | Some id ->
              Format.fprintf ppf "-- crashed shard %d's gateway (node %d)@."
                s (Netsim.Node_id.to_int id)
          | None -> ())
      | _ -> ());
      Format.fprintf ppf "%-10d %-12d %-10d %-10d %-8d %d@." (k * 10)
        (Span.to_us (CH.cross_shard_skew t))
        (Span.to_us (CH.neighbor_skew t))
        (CH.agreed_rounds t) (CH.regressions t)
        (CH.ccs_rounds_completed t)
    done;
    let skew = CH.cross_shard_skew t in
    Format.fprintf ppf
      "@.final cross-shard skew %d us over %d shards; gateways: %s@."
      (Span.to_us skew) shards
      (String.concat " "
         (List.init shards (fun s ->
              match CH.gateway_of t s with
              | Some id -> string_of_int (Netsim.Node_id.to_int id)
              | None -> "?")));
    Format.fprintf ppf
      "engine: %d events executed, event-queue high water %d@."
      (Dsim.Engine.steps t.CH.eng)
      (CH.queue_hwm t);
    if traced then warn_overwritten (Obs.Recorder.dropped recorder);
    (match trace_file with
    | Some file ->
        let process_name pid =
          Printf.sprintf "replica %d (shard %d)" pid
            (Hier.Topology.shard_of topo (Netsim.Node_id.of_int pid))
        in
        let tr = Obs.Recorder.to_trace recorder in
        Obs.Trace.write_chrome_file ~process_name tr file;
        Format.fprintf ppf "wrote %s: %d event(s)@." file (Obs.Trace.length tr)
    | None -> ());
    if metrics_file <> None then begin
      let m =
        Obs.Metrics.of_recorder ~engine_events:(Dsim.Engine.steps t.CH.eng)
          recorder
      in
      List.iter
        (fun (name, v) -> Obs.Metrics.gauge m name := float_of_int v)
        [
          ("event_queue_hwm", CH.queue_hwm t);
          ("formation_minor_words", formation_words);
          ("hier_cross_shard_skew_us", Span.to_us skew);
          ("hier_neighbor_skew_us", Span.to_us (CH.neighbor_skew t));
        ];
      Obs.Metrics.gauge m "world_mb" := world_mb;
      write_metrics_opt m metrics_file
    end;
    print_attrib_opt attrib;
    flush_flight ~prefix:dump recorder check
  in
  let trace_file =
    let doc =
      "Write the run's span trace to $(docv) (Chrome trace-event JSON)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let shards =
    let doc = "Number of shards (second-level ring size)." in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let shard_size =
    let doc = "Replicas per shard (first-level Totem ring size)." in
    Arg.(value & opt int 4 & info [ "shard-size" ] ~docv:"K" ~doc)
  in
  let duration =
    let doc = "Simulated run length in milliseconds." in
    Arg.(value & opt int 100 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let mode =
    let doc = "Bridge protocol: star (poll/offer/agree) or ring (token)." in
    Arg.(value & opt string "star" & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let crash =
    let doc =
      "Crash shard $(docv)'s gateway halfway through, to watch the \
       deterministic re-election and recovery."
    in
    Arg.(
      value & opt (some int) None & info [ "crash-shard" ] ~docv:"S" ~doc)
  in
  Cmd.v
    (Cmd.info "hier"
       ~doc:
         "Run the hierarchical multi-ring time service: per-shard Totem \
          rings bridged by elected gateways agreeing a global group clock \
          (accepts the full --trace/--metrics/--attrib set and \
          --dump-on-exit)")
    Term.(
      const run $ seed $ shards $ shard_size $ duration $ mode $ crash
      $ trace_file $ metrics_file $ attrib_flag $ dump_on_exit)

let postmortem_cmd =
  let file =
    let doc =
      "Flight-recorder dump to diagnose (the .flight.txt written by \
       --dump-on-exit, a verdict flush, or explore --flight)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let tail =
    let doc = "Timeline records to print (from the end of the window)." in
    Arg.(value & opt int 40 & info [ "tail" ] ~docv:"N" ~doc)
  in
  let run file tail =
    match Obs.Postmortem.load_file file with
    | Error e ->
        Format.eprintf "%s: %s@." file e;
        exit 1
    | Ok w -> Format.fprintf ppf "%a" (Obs.Postmortem.report ~tail) w
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Reconstruct what led into a verdict from a dumped \
          flight-recorder window: decode the record timeline, match \
          deliveries and drops back to their sends (per-path FIFO \
          lineage), and name the suspect hop for each verdict")
    Term.(const run $ file $ tail)

let main =
  Cmd.group
    (Cmd.info "ctsim" ~version:"1.0.0"
       ~doc:
         "Deterministic simulator for the consistent time service of Zhao, \
          Moser and Melliar-Smith (DSN 2003)")
    [
      fig4_cmd;
      fig5_cmd;
      fig6_cmd;
      msgcounts_cmd;
      drift_cmd;
      rollback_cmd;
      token_cmd;
      recovery_cmd;
      causal_cmd;
      hier_cmd;
      explore_cmd;
      run_cmd;
      trace_check_cmd;
      postmortem_cmd;
    ]

let () = exit (Cmd.eval main)
