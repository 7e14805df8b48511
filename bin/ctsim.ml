(* ctsim — command-line driver for the consistent-time-service simulator.

   [experiments] prints every section of DESIGN.md's experiment index at
   the paper's sizes; the other subcommands run the simulator with the
   observability stack attached, or read what such a run wrote. *)

module E = Scenario.Experiments
module R = Scenario.Report

let ppf = Format.std_formatter

open Cmdliner

let seed =
  let doc = "Root seed of the deterministic simulation." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)

let seed64 s = Int64.of_int s

(* An option out of range ends the command before anything runs: one
   line on stderr and exit status 2. *)
let usage_error fmt =
  Format.kasprintf (fun msg -> prerr_endline ("ctsim: " ^ msg); exit 2) fmt

let replicas =
  let doc = "Number of server replicas." in
  Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"N" ~doc)

let rounds_arg default =
  let doc = "Clock-related operations per replica." in
  Arg.(value & opt int default & info [ "rounds" ] ~docv:"N" ~doc)

(* Observability flags shared by run / hier / explore, so the three
   subcommands accept the same set. *)

let attrib_flag =
  let doc =
    "Collect wall-time attribution (per-subsystem probe self time) and \
     print the table at exit."
  in
  Arg.(value & flag & info [ "attrib" ] ~doc)

let dump_on_exit =
  let doc =
    "Flush the run's record stream at exit to $(docv).flight.txt \
     (postmortem dump, read with $(b,ctsim postmortem)), \
     $(docv).flight.json (Chrome trace for Perfetto, check with \
     $(b,ctsim trace-check)) and $(docv).metrics.json (metrics \
     snapshot).  Without this flag the stream is flushed, with prefix \
     $(b,incident), only when the run raised a verdict.  The stream is \
     a ring holding the last 1,000,000 records with this flag, else the \
     last 65,536; $(b,explore) flushes the minimal counterexample's \
     window, and only on a violation."
  in
  Arg.(
    value & opt (some string) None & info [ "dump-on-exit" ] ~docv:"PREFIX" ~doc)

(* The observers on a simulation's stream: the recorder, the [check] and,
   with --attrib, wall-time attribution (bench/main.exe's `obs` gate bounds
   their cost).  A flush asked for keeps the whole of most runs; a verdict
   flush keeps the default window, since the 32x32 join storm ends in a
   true verdict and a 1,000,000-record flush of it would double the run's
   time. *)
let observe ~dump ~attrib check =
  let recorder =
    Obs.Recorder.create
      ~capacity:
        (if dump = None then Obs.Recorder.default_capacity else 1_000_000)
      ()
  in
  let attrib = if attrib then Some (Obs.Attrib.create ()) else None in
  let sink = Obs.Sink.create () in
  Obs.Sink.set_recorder sink (Some recorder);
  Obs.Sink.set_check sink (Some check);
  Obs.Sink.set_attrib sink attrib;
  (sink, recorder, attrib)

let print_attrib_opt = function
  | Some a -> Format.fprintf ppf "@.wall-time attribution:@.%a@." Obs.Attrib.pp a
  | None -> ()

let check_verdicts check =
  Obs.Check.finish check;
  let vs = Obs.Check.verdicts check in
  if vs = [] then Format.fprintf ppf "check: no verdicts@."
  else Format.fprintf ppf "check: %d verdict(s):@." (List.length vs);
  List.iter (fun v -> Format.fprintf ppf "  %a@." Obs.Check.pp_verdict v) vs;
  vs

let metrics_of ?engine_events ?(gauges = []) recorder =
  let m = Obs.Metrics.of_recorder ?engine_events recorder in
  List.iter (fun (name, v) -> Obs.Metrics.gauge m name := v) gauges;
  m

(* The one writer of a run's record stream, on a verdict or when asked
   for.  Every view of the run is read from the one ring, so say so when
   it overflowed: each then covers only the records it still holds. *)
let flush ~dump ~process_name ~metrics recorder verdicts =
  let overwritten = Obs.Recorder.dropped recorder in
  if overwritten > 0 then
    Format.fprintf ppf
      "warning: the first %d record(s) were overwritten; the window covers \
       only the rest of the run%s@."
      overwritten
      (if dump = None then " (--dump-on-exit keeps the last 1,000,000)"
       else "");
  match (dump, verdicts) with
  | None, [] -> ()
  | _ ->
      let prefix = Option.value dump ~default:"incident" in
      let txt = prefix ^ ".flight.txt"
      and json = prefix ^ ".flight.json"
      and mjson = prefix ^ ".metrics.json" in
      Obs.Postmortem.dump_file recorder verdicts txt;
      Out_channel.with_open_text json (fun oc ->
          Obs.Trace.write_chrome ~process_name oc
            (Obs.Recorder.chrome_events recorder));
      Out_channel.with_open_text mjson (fun oc ->
          output_string oc (Obs.Metrics.to_json metrics);
          output_char oc '\n');
      Format.fprintf ppf
        "wrote %s, %s and %s: flight window, %d record(s) held of %d \
         emitted (diagnose with `ctsim postmortem %s`)@."
        txt json mjson
        (Obs.Recorder.length recorder)
        (Obs.Recorder.total recorder)
        txt

(* ------------------------------------------------------------------ *)

(* The paper's evaluation end to end at its full sizes, in the order of
   DESIGN.md's experiment index, each under a "==== <id>: <title> ===="
   heading. *)
let experiments_cmd =
  let section name = Format.fprintf ppf "@.==== %s ====@.@." name in
  let run () =
    section "E1 / Figure 4: worked example of the CCS algorithm";
    R.fig4 ppf (E.fig4 ());
    section "M1: token-passing-time calibration (paper ref [20])";
    R.token ppf (E.token_calibration ~rotations:10_000 ());
    section
      "E2 / Figure 5: end-to-end latency with and without the consistent \
       time service";
    let invocations = 10_000 in
    Format.fprintf ppf "(%d invocations per run)@." invocations;
    R.latency_pair ppf
      ~with_cts:(E.latency ~invocations ~use_cts:true ())
      ~without_cts:(E.latency ~invocations ~use_cts:false ());
    section "E3-E6 / Figure 6: skew, drift and CCS message counts";
    let rounds = 10_000 in
    Format.fprintf ppf "(%d clock-related operations per replica)@.@." rounds;
    let run = E.skew ~rounds () in
    R.fig6a ppf run;
    Format.fprintf ppf "@.";
    R.fig6b ppf run;
    Format.fprintf ppf "@.";
    R.fig6c ppf run;
    Format.fprintf ppf "@.";
    R.msg_counts ppf run;
    section "A1: drift-compensation ablation (paper section 3.3)";
    R.drift_table ppf
      (List.map
         (fun c ->
           (E.compensation_name c, E.skew ~rounds:2_000 ~compensation:c ()))
         E.drift_strategies);
    section "A2: clock roll-back on failover (paper section 1)";
    let rollback offset_tracking =
      E.rollback ~style:Repl.Replica.Semi_active ~offset_tracking ()
    in
    R.rollback_pair ppf ~baseline:(rollback false) ~cts:(rollback true);
    section "A4: overhead vs replication degree";
    R.group_size_table ppf
      (List.map
         (fun replicas ->
           ( replicas,
             E.latency ~invocations:2_000 ~replicas ~use_cts:true (),
             E.latency ~invocations:2_000 ~replicas ~use_cts:false () ))
         [ 2; 3; 4; 5 ]);
    section "A3: new-replica integration (paper section 3.2)";
    R.recovery ppf (E.recovery ~readings:40 ());
    section "E7: causal group clocks across groups (paper section 5)";
    R.causal ppf (E.causal ());
    section "A5: agreed vs safe delivery (Totem delivery-guarantee ablation)";
    let mean delivery =
      Stats.Summary.mean
        (E.latency ~invocations:2_000 ~use_cts:true
           ~totem_config:{ Totem.Config.default with delivery }
           ())
          .E.summary
    in
    let agreed = mean Totem.Config.Agreed in
    let safe = mean Totem.Config.Safe in
    Format.fprintf ppf "%-22s %-18s@." "delivery guarantee" "mean latency (us)";
    Format.fprintf ppf "%-22s %-18.1f@." "agreed (paper's)" agreed;
    Format.fprintf ppf "%-22s %-18.1f@." "safe" safe;
    Format.fprintf ppf
      "safe delivery stabilizes every message across the ring first; the \
       paper's CTS only needs agreed delivery@."
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "The paper's whole evaluation at full size: Figures 4-6, the token \
          calibration, the ablations and the causal extension (E1-E7, M1, \
          A1-A5)")
    Term.(const run $ const ())

let run_cmd =
  let steps =
    let doc =
      "Record one step record per engine callback too (per-step engine \
       rows; traces get very large)."
    in
    Arg.(value & flag & info [ "steps" ] ~doc)
  in
  let run seed replicas rounds steps attrib dump =
    if replicas < 1 then usage_error "--replicas must be >= 1";
    if rounds < 1 then usage_error "--rounds must be >= 1";
    let check = Obs.Check.create () in
    let sink, recorder, attrib = observe ~dump ~attrib check in
    Obs.Sink.set_steps sink steps;
    let r = E.skew ~seed:(seed64 seed) ~rounds ~replicas ~obs:sink () in
    let eng = r.E.cluster.Scenario.Cluster.eng in
    let hwm = Dsim.Engine.queue_high_water eng in
    let metrics =
      metrics_of ~engine_events:(Dsim.Engine.steps eng)
        ~gauges:[ ("event_queue_hwm", float_of_int hwm) ]
        recorder
    in
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
    print_attrib_opt attrib;
    (* Node 0 hosts the client; experiment replica [k] is node [k+1]. *)
    let process_name pid =
      if pid = 0 then "client (node 0)"
      else Printf.sprintf "replica %d (node %d)" (pid - 1) pid
    in
    flush ~dump ~process_name ~metrics recorder (check_verdicts check)
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the clock-sequence experiment with a recorder and a check on \
          the record stream, and print counts read from it (see \
          --dump-on-exit for the trace, metrics and postmortem files)")
    Term.(
      const run $ seed $ replicas $ rounds_arg 200 $ steps $ attrib_flag
      $ dump_on_exit)

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
  let run seed replicas strategy budget depth rounds crash quantum_us
      delay_prob reorder_prob keep_going jobs attrib dump =
    let strategy =
      match Mc.Strategy.of_string strategy with
      | Some (Mc.Strategy.Random _) ->
          Mc.Strategy.Random { delay_prob; reorder_prob }
      | Some (Mc.Strategy.Bounded _) -> Mc.Strategy.Bounded { depth }
      | None -> usage_error "unknown strategy %S" strategy
    in
    if replicas < 2 then usage_error "explore needs at least 2 replicas";
    if rounds < 1 then usage_error "--rounds must be >= 1";
    if budget < 1 then usage_error "--budget must be >= 1";
    if quantum_us < 1 then usage_error "--quantum-us must be >= 1";
    let probability name p =
      if not (p >= 0. && p <= 1.) then usage_error "%s must be in [0, 1]" name
    in
    probability "--delay-prob" delay_prob;
    probability "--reorder-prob" reorder_prob;
    if jobs < 1 then usage_error "--jobs must be >= 1";
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
      Option.map
        (fun a ->
          let s = Obs.Sink.create () in
          Obs.Sink.set_attrib s (Some a);
          s)
        attrib
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
    (match report.Mc.Explore.violations with
    | v :: _ ->
        (* The minimal counterexample's black box is the window to flush:
           refill a recorder from its dump. *)
        let w =
          match Obs.Postmortem.load_string v.Mc.Explore.blackbox with
          | Ok w -> w
          | Error e -> failwith ("the black box does not load: " ^ e)
        in
        let recorder = Obs.Recorder.create () in
        Array.iter
          (fun { Obs.Postmortem.kind; ts_us; node; a; b } ->
            Obs.Recorder.emit recorder ~kind ~ts_us ~node ~a ~b)
          w.Obs.Postmortem.records;
        (* In the model-check harness every node runs a replica. *)
        let process_name pid = Printf.sprintf "replica %d" pid in
        flush ~dump ~process_name
          ~metrics:(Obs.Metrics.of_recorder recorder)
          recorder w.Obs.Postmortem.verdicts
    | [] when dump <> None ->
        Format.fprintf ppf "no violation, no flight window written@."
    | [] -> ());
    print_attrib_opt attrib;
    if report.Mc.Explore.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Model-check the group clock: drive many event interleavings \
          through the simulator and judge each with the stream's check \
          (monotonicity, agreement, single synchronizer, liveness and \
          membership); on a violation, flush the minimal counterexample's \
          window (see --dump-on-exit)")
    Term.(
      const run $ seed $ replicas $ strategy $ budget $ depth $ rounds_arg 12
      $ crash $ quantum_us $ delay_prob $ reorder_prob $ keep_going $ jobs
      $ attrib_flag $ dump_on_exit)

(* ------------------------------------------------------------------ *)

let hier_cmd =
  let module CH = Scenario.Cluster_hier in
  let module Span = Dsim.Time.Span in
  let run seed shards shard_size duration_ms crash_shard attrib dump =
    if shards < 1 then usage_error "--shards must be >= 1";
    if shard_size < 1 then usage_error "--shard-size must be >= 1";
    if duration_ms < 1 then usage_error "--duration-ms must be >= 1";
    (match crash_shard with
    | Some s when s < 0 || s >= shards ->
        usage_error "--crash-shard must be a shard, 0 to %d" (shards - 1)
    | _ -> ());
    let topo = Hier.Topology.create ~shards ~shard_size in
    let clock_config i =
      {
        Clock.Hwclock.default_config with
        offset =
          Span.of_ms (-1 * Hier.Topology.shard_of topo (Netsim.Node_id.of_int i));
      }
    in
    (* CCS rounds are numbered per shard ring, so the check judges each
       shard as its own ring. *)
    let check =
      Obs.Check.create
        ~config:
          { Obs.Check.default_config with rings = Hier.Topology.rings topo }
        ()
    in
    let sink, recorder, attrib = observe ~dump ~attrib check in
    let t =
      CH.create ~seed:(seed64 seed) ~clock_config ~shards ~shard_size
        ~obs:sink ()
    in
    Format.fprintf ppf
      "%d replicas (%d shards x %d), star bridge, shard s clocks start s ms \
       behind@."
      (Hier.Topology.replicas topo)
      shards shard_size;
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
    print_attrib_opt attrib;
    let verdicts = check_verdicts check in
    let metrics =
      metrics_of ~engine_events:(Dsim.Engine.steps t.CH.eng)
        ~gauges:
          [
            ("event_queue_hwm", float_of_int (CH.queue_hwm t));
            ("formation_minor_words", float_of_int formation_words);
            ("hier_cross_shard_skew_us", float_of_int (Span.to_us skew));
            ( "hier_neighbor_skew_us",
              float_of_int (Span.to_us (CH.neighbor_skew t)) );
            ("world_mb", world_mb);
          ]
        recorder
    in
    let process_name pid =
      Printf.sprintf "replica %d (shard %d)" pid
        (Hier.Topology.shard_of topo (Netsim.Node_id.of_int pid))
    in
    flush ~dump ~process_name ~metrics recorder verdicts
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
          (see --dump-on-exit for the trace, metrics and postmortem files)")
    Term.(
      const run $ seed $ shards $ shard_size $ duration $ crash $ attrib_flag
      $ dump_on_exit)

let postmortem_cmd =
  let file =
    let doc =
      "Flight-recorder dump to diagnose (the .flight.txt written by \
       --dump-on-exit or by a verdict flush)."
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
      experiments_cmd;
      hier_cmd;
      explore_cmd;
      run_cmd;
      trace_check_cmd;
      postmortem_cmd;
    ]

let () = exit (Cmd.eval main)
