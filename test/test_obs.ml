(* Tests for lib/obs: the metrics registry, the span tracer and its
   Chrome exporter / validator, the single-gate sink, the per-message
   records of batched network deliveries, the §3.4 cross-check between
   the skew experiment's samples and the stream's [ccs-round] spans, the
   stream fold against the components' own counters, and the export of
   a ring that wrapped mid-round. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Net = Netsim.Network
module Nid = Netsim.Node_id
module E = Scenario.Experiments
module R = Scenario.Report

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let n = Nid.of_int

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)

let test_metrics_counters () =
  let m = Obs.Metrics.create () in
  check int "fresh counter" 0 (Obs.Metrics.get m Obs.Metrics.Ccs_rounds);
  Obs.Metrics.incr m Obs.Metrics.Ccs_rounds;
  Obs.Metrics.incr m Obs.Metrics.Ccs_rounds;
  Obs.Metrics.add m Obs.Metrics.Net_sent 5;
  check int "incr twice" 2 (Obs.Metrics.get m Obs.Metrics.Ccs_rounds);
  check int "add" 5 (Obs.Metrics.get m Obs.Metrics.Net_sent);
  (* every key is independent *)
  List.iter
    (fun k ->
      if k <> Obs.Metrics.Ccs_rounds && k <> Obs.Metrics.Net_sent then
        check int (Obs.Metrics.key_name k) 0 (Obs.Metrics.get m k))
    Obs.Metrics.all_keys;
  Obs.Metrics.reset m;
  check int "reset" 0 (Obs.Metrics.get m Obs.Metrics.Ccs_rounds)

let test_metrics_gauges_hists () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "queue_depth" in
  g := 42.;
  check bool "gauge find-or-create" true
    ((Obs.Metrics.gauge m "queue_depth" == g)
    [@ctslint.allow
      "phys-equality" "the test asserts find-or-create returns the same \
                       ref, so identity is exactly what is under test"]);
  Obs.Metrics.observe m Obs.Metrics.Rpc_latency_us 120.;
  Obs.Metrics.observe m Obs.Metrics.Rpc_latency_us 130.;
  check int "hist count" 2
    (Stats.Histogram.count (Obs.Metrics.hist m Obs.Metrics.Rpc_latency_us));
  let json = Obs.Metrics.to_json m in
  let contains needle =
    let ln = String.length needle and lj = String.length json in
    let rec go i = i + ln <= lj && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  check bool "json counters" true (contains "\"counters\"");
  check bool "json gauge" true (contains "\"queue_depth\": 42");
  check bool "json hist" true (contains "\"rpc_latency_us\"")

(* ------------------------------------------------------------------ *)
(* Trace buffer + Chrome exporter + validator                          *)

let sub = Obs.Subsystem.Ccs

let test_trace_capacity_and_clear () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Trace.instant tr ~ts_ns:(i * 1000) ~pid:1 ~sub ~name:"x" ~args:[]
  done;
  check int "kept at capacity" 4 (Obs.Trace.length tr);
  check int "excess counted" 2 (Obs.Trace.dropped tr);
  Obs.Trace.clear tr;
  check int "cleared" 0 (Obs.Trace.length tr);
  check int "dropped cleared" 0 (Obs.Trace.dropped tr)

let build_sample_trace () =
  let tr = Obs.Trace.create () in
  Obs.Trace.span_begin tr ~ts_ns:1_000 ~pid:1 ~sub ~name:"ccs-round"
    ~args:[ ("round", 1) ];
  Obs.Trace.instant tr ~ts_ns:1_500 ~pid:2 ~sub:Obs.Subsystem.Netsim
    ~name:"send" ~args:[ ("dst", 1) ];
  Obs.Trace.span_end tr ~ts_ns:2_000 ~pid:1 ~sub ~name:"ccs-round"
    ~args:[ ("round", 1); ("adjustment_us", -3) ];
  Obs.Trace.instant tr ~ts_ns:2_500 ~pid:2 ~sub:Obs.Subsystem.Totem
    ~name:"token" ~args:[];
  tr

let test_chrome_roundtrip () =
  let tr = build_sample_trace () in
  let b = Buffer.create 256 in
  Obs.Trace.to_chrome tr b;
  match Obs.Trace.validate_string (Buffer.contents b) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check int "events" 4 s.Obs.Trace.v_events;
      check int "pids" 2 s.Obs.Trace.v_pids;
      check bool "subsystems named" true
        (List.mem "ccs" s.Obs.Trace.v_subsystems
        && List.mem "netsim" s.Obs.Trace.v_subsystems
        && List.mem "totem" s.Obs.Trace.v_subsystems)

let test_chrome_file_roundtrip () =
  let tr = build_sample_trace () in
  let file = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.write_chrome_file tr file;
      match Obs.Trace.validate_file file with
      | Error e -> Alcotest.fail e
      | Ok s -> check int "events from file" 4 s.Obs.Trace.v_events)

let test_validator_rejects () =
  (match Obs.Trace.validate_string "{ not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed JSON accepted");
  (match Obs.Trace.validate_string "{\"traceEvents\": 3}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-array traceEvents accepted");
  (* timestamps running backwards on one (pid, tid) row *)
  let backwards =
    {|{"traceEvents":[
      {"ph":"i","ts":2.000,"pid":1,"tid":4,"name":"a","s":"t"},
      {"ph":"i","ts":1.000,"pid":1,"tid":4,"name":"b","s":"t"}]}|}
  in
  (match Obs.Trace.validate_string backwards with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-monotone ts accepted");
  (* End with no matching Begin *)
  let unopened =
    {|{"traceEvents":[
      {"ph":"E","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|}
  in
  (match Obs.Trace.validate_string unopened with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "End-without-Begin accepted");
  (* a span still open when the capture ends is fine *)
  let open_at_end =
    {|{"traceEvents":[
      {"ph":"B","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|}
  in
  match Obs.Trace.validate_string open_at_end with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("open span rejected: " ^ e)

(* ------------------------------------------------------------------ *)
(* Sink gating on the engine                                           *)

let recording_sink () =
  let r = Obs.Recorder.create ~capacity:200_000 () in
  let s = Obs.Sink.create () in
  Obs.Sink.set_recorder s (Some r);
  (s, r)

let test_sink_gating_and_late_attach () =
  let eng = Dsim.Engine.create () in
  for i = 1 to 10 do
    Dsim.Engine.schedule eng (Span.of_us i) ignore
  done;
  Dsim.Engine.run eng;
  (* nothing attached: the run must leave no observable state anywhere *)
  check bool "inactive by default" false
    (Obs.Sink.is_active (Dsim.Engine.obs eng));
  (* attach after the engine (and a whole run) already exists *)
  let s, r = recording_sink () in
  Obs.Sink.set_steps s true;
  check bool "a recorder opens the gate" true (Obs.Sink.is_active s);
  Dsim.Engine.set_obs eng s;
  for i = 1 to 7 do
    Dsim.Engine.schedule eng (Span.of_us i) ignore
  done;
  Dsim.Engine.run eng;
  check int "only post-attach events recorded" 7 (Obs.Recorder.total r);
  Obs.Sink.set_recorder s None;
  check bool "detaching closes the gate" false (Obs.Sink.is_active s)

let events_named r name =
  List.filter
    (fun (e : Obs.Trace.event) -> e.Obs.Trace.name = name)
    (Obs.Trace.events (Obs.Recorder.to_trace r))

let test_trace_steps_flag () =
  let run steps =
    let eng = Dsim.Engine.create () in
    let s, r = recording_sink () in
    Obs.Sink.set_steps s steps;
    Dsim.Engine.set_obs eng s;
    for i = 1 to 5 do
      Dsim.Engine.schedule eng (Span.of_us i) ignore
    done;
    Dsim.Engine.run eng;
    List.length (events_named r "step")
  in
  check int "step records off by default" 0 (run false);
  check int "step records on demand" 5 (run true)

(* ------------------------------------------------------------------ *)
(* Netsim: batched broadcasts keep exact per-message records           *)

let obs_net () =
  let eng = Dsim.Engine.create () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 10); loss = 0. }
  in
  let s, r = recording_sink () in
  Dsim.Engine.set_obs eng s;
  (eng, net, r)

let counter r k = Obs.Metrics.get (Obs.Metrics.of_recorder r) k

let test_batch_per_message_records () =
  let eng, net, r = obs_net () in
  for i = 0 to 2 do
    Net.attach net (n i) (fun ~src:_ _ -> ())
  done;
  Net.broadcast_many net ~src:(n 0) [| "a"; "b"; "c" |] ~n:3;
  Dsim.Engine.run eng;
  (* 3 messages x 2 receivers: one record per absorbed message, each
     tagged with its position in the batch *)
  check int "sent records" 3 (List.length (events_named r "send"));
  let delivers = events_named r "deliver" in
  check int "deliver records" 6 (List.length delivers);
  check int "deliver counter" 6 (counter r Obs.Metrics.Net_delivered);
  List.iter
    (fun pid ->
      let pos =
        List.filter_map
          (fun (e : Obs.Trace.event) ->
            if e.Obs.Trace.pid = pid then List.assoc_opt "pos" e.Obs.Trace.args
            else None)
          delivers
      in
      check (Alcotest.list int)
        (Printf.sprintf "batch positions at node %d" pid)
        [ 0; 1; 2 ] pos)
    [ 1; 2 ]

let test_batch_mid_detach_split () =
  let eng, net, r = obs_net () in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  (* node 1 detaches itself on the first delivery of the batch: the two
     remaining absorbed messages must each get their own No_port drop
     record, with their batch positions *)
  Net.attach net (n 1) (fun ~src:_ _ -> Net.detach net (n 1));
  Net.broadcast_many net ~src:(n 0) [| "a"; "b"; "c" |] ~n:3;
  Dsim.Engine.run eng;
  let delivers = events_named r "deliver" in
  let drops = events_named r "drop" in
  check int "one delivered before detach" 1 (List.length delivers);
  check int "rest dropped per message" 2 (List.length drops);
  check int "drop counter" 2 (counter r Obs.Metrics.Net_dropped);
  check (Alcotest.list int) "drop batch positions" [ 1; 2 ]
    (List.filter_map
       (fun (e : Obs.Trace.event) -> List.assoc_opt "pos" e.Obs.Trace.args)
       drops);
  List.iter
    (fun (e : Obs.Trace.event) ->
      check (Alcotest.option int) "No_port reason" (Some 2)
        (List.assoc_opt "reason" e.Obs.Trace.args))
    drops

(* ------------------------------------------------------------------ *)
(* §3.4 cross-check: obs ccs-round events vs the recorder's samples    *)

(* One skew run with the sink attached.  The trace's [ccs-round] End
   events at pid [w + 1] must agree, round for round, with what the
   recorder sampled at replica [w]: rounds strictly increasing, the
   winner's post-round offsets identical, and each End's adjustment the
   exact difference between consecutive offsets. *)
let prop_skew_trace_matches_samples =
  QCheck.Test.make ~count:5
    ~name:"obs: ccs-round events agree with the skew recorder"
    QCheck.(int_range 1 1_000)
    (fun seed ->
      let sink, recorder = recording_sink () in
      let rounds = 40 in
      let run =
        E.skew ~seed:(Int64.of_int seed) ~rounds ~replicas:3 ~obs:sink ()
      in
      let trace = Obs.Recorder.to_trace recorder in
      let metrics = Obs.Metrics.of_recorder recorder in
      (* the whole stack showed up in the trace *)
      if List.length (Obs.Trace.subsystems trace) < 6 then
        QCheck.Test.fail_reportf "only %d subsystems traced"
          (List.length (Obs.Trace.subsystems trace));
      if Obs.Metrics.get metrics Obs.Metrics.Ccs_rounds < 3 * rounds then
        QCheck.Test.fail_reportf "ccs rounds undercounted: %d"
          (Obs.Metrics.get metrics Obs.Metrics.Ccs_rounds);
      (* recorder-side: rounds strictly increase per replica *)
      Array.iter
        (fun samples ->
          ignore
            (List.fold_left
               (fun prev (s : E.round_sample) ->
                 if s.E.round <= prev then
                   QCheck.Test.fail_reportf "recorder rounds not monotone";
                 s.E.round)
               0 samples))
        run.E.samples;
      (* trace-side: per pid, ccs-round End rounds strictly increase *)
      let ends_at pid =
        List.filter
          (fun (e : Obs.Trace.event) ->
            e.Obs.Trace.ph = Obs.Trace.End
            && e.Obs.Trace.name = "ccs-round"
            && e.Obs.Trace.pid = pid)
          (Obs.Trace.events trace)
      in
      for pid = 1 to 3 do
        ignore
          (List.fold_left
             (fun prev (e : Obs.Trace.event) ->
               let r =
                 Option.value ~default:(-1)
                   (List.assoc_opt "round" e.Obs.Trace.args)
               in
               if r <= prev then
                 QCheck.Test.fail_reportf "trace rounds not monotone";
               r)
             0 (ends_at pid))
      done;
      (* winner's offsets and adjustments, exactly *)
      let w = R.first_round_winner run in
      let ends = ends_at (w + 1) in
      let samples = run.E.samples.(w) in
      if List.length ends <> List.length samples then
        QCheck.Test.fail_reportf "winner: %d End events for %d samples"
          (List.length ends) (List.length samples);
      List.iter2
        (fun (e : Obs.Trace.event) (s : E.round_sample) ->
          let off =
            Option.value ~default:min_int
              (List.assoc_opt "offset_us" e.Obs.Trace.args)
          in
          if off <> Span.to_us s.E.offset then
            QCheck.Test.fail_reportf
              "winner offset mismatch: trace %d us, sample %d us" off
              (Span.to_us s.E.offset))
        ends samples;
      ignore
        (List.fold_left
           (fun prev_off (e : Obs.Trace.event) ->
             let off =
               Option.value ~default:min_int
                 (List.assoc_opt "offset_us" e.Obs.Trace.args)
             in
             let adj =
               Option.value ~default:min_int
                 (List.assoc_opt "adjustment_us" e.Obs.Trace.args)
             in
             if off - prev_off <> adj then
               QCheck.Test.fail_reportf
                 "adjustment %d us is not the offset delta %d us" adj
                 (off - prev_off);
             off)
           0 ends);
      true)

(* ------------------------------------------------------------------ *)
(* The stream fold against the components' own counters                *)

let test_fold_matches_components () =
  let sink, recorder = recording_sink () in
  let run = E.skew ~seed:23L ~rounds:40 ~replicas:3 ~obs:sink () in
  check int "the ring held the whole run" 0 (Obs.Recorder.dropped recorder);
  let m = Obs.Metrics.of_recorder recorder in
  let get = Obs.Metrics.get m in
  let cluster = run.E.cluster in
  let net = cluster.Scenario.Cluster.net in
  let over_nodes f =
    Array.fold_left
      (fun acc (nd : Scenario.Cluster.node) -> acc + f nd.Scenario.Cluster.id)
      0 cluster.Scenario.Cluster.nodes
  in
  let total = Array.fold_left ( + ) 0 in
  check int "net sent" (over_nodes (Net.stats net ~sent:true))
    (get Obs.Metrics.Net_sent);
  check int "net delivered" (over_nodes (Net.stats net ~sent:false))
    (get Obs.Metrics.Net_delivered);
  check int "net dropped" (Net.packets_dropped net)
    (get Obs.Metrics.Net_dropped);
  check int "ccs rounds opened" (total run.E.ccs_rounds)
    (get Obs.Metrics.Ccs_rounds);
  check int "ccs rounds settled" (total run.E.ccs_rounds)
    (get Obs.Metrics.Ccs_wins);
  check int "ccs suppressed" (total run.E.ccs_suppressed)
    (get Obs.Metrics.Ccs_suppressed)

(* A ring that wrapped mid-round: the window opens on a [ccs-settle]
   whose [ccs-open] was overwritten.  The export must drop that End and
   still validate.  Runs are deterministic, so a first pass over the
   whole stream picks a capacity that cuts right after a round opened,
   and the second pass records the same stream into that smaller ring. *)
let test_wrapped_ring_exports_valid_trace () =
  let skew obs = ignore (E.skew ~seed:5L ~rounds:20 ~replicas:3 ~obs () : E.skew_run) in
  let sink, full = recording_sink () in
  skew sink;
  let kinds = ref [] in
  Obs.Recorder.iter full (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
      kinds := kind :: !kinds);
  let kinds = Array.of_list (List.rev !kinds) in
  let total = Array.length kinds in
  (* cut right after the first round opened *)
  let cut = ref (-1) in
  Array.iteri
    (fun i kind ->
      if kind = Obs.Recorder.k_ccs_open && !cut < 0 then cut := i + 1)
    kinds;
  check bool "a round opened" true (!cut > 0);
  let ring = Obs.Recorder.create ~capacity:(total - !cut) () in
  let sink = Obs.Sink.create () in
  Obs.Sink.set_recorder sink (Some ring);
  skew sink;
  check int "same stream, wrapped" !cut (Obs.Recorder.dropped ring);
  let trace = Obs.Recorder.to_trace ring in
  let ends =
    List.filter
      (fun (e : Obs.Trace.event) ->
        e.Obs.Trace.name = "ccs-round" && e.Obs.Trace.ph = Obs.Trace.End)
      (Obs.Trace.events trace)
  in
  check bool "ccs-round spans survive" true (ends <> []);
  let settles = ref 0 in
  Obs.Recorder.iter ring (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
      if kind = Obs.Recorder.k_ccs_settle then incr settles);
  check bool "the orphaned settle was dropped" true
    (List.length ends < !settles);
  let b = Buffer.create 65536 in
  Obs.Trace.to_chrome trace b;
  match Obs.Trace.validate_string (Buffer.contents b) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("wrapped-ring trace invalid: " ^ e)

(* ------------------------------------------------------------------ *)
(* Mc: span trace of a shrunk counterexample                           *)

(* The shrunk counterexample's black box is the window ctsim flushes on a
   violation: reloaded and refilled into a recorder, it must hold the
   whole replay, export a valid span trace with CCS rounds in it, and dump
   back to the same bytes. *)
let test_counterexample_blackbox () =
  let buggy =
    {
      Mc.Harness.default with
      Mc.Harness.rounds = 8;
      think_us = 60;
      straggle_us = 80;
      jitter_us = 5;
      latency_us = 20;
      bug = Some Mc.Harness.Ignore_buffered_winner;
    }
  in
  let r =
    Mc.Explore.explore ~strategy:(Mc.Strategy.Bounded { depth = 1 })
      ~budget:300 buggy
  in
  match r.Mc.Explore.violations with
  | [] -> Alcotest.fail "exploration missed the seeded bug"
  | v :: _ -> (
      match Obs.Postmortem.load_string v.Mc.Explore.blackbox with
      | Error e -> Alcotest.fail ("black box does not load: " ^ e)
      | Ok w ->
          check int "the whole replay fits the window" 0
            w.Obs.Postmortem.w_dropped;
          let recorder = Obs.Recorder.create () in
          Array.iter
            (fun { Obs.Postmortem.kind; ts_us; node; a; b } ->
              Obs.Recorder.emit recorder ~kind ~ts_us ~node ~a ~b)
            w.Obs.Postmortem.records;
          let trace = Obs.Recorder.to_trace recorder in
          check bool "trace nonempty" true (Obs.Trace.length trace > 0);
          check bool "ccs rounds counted" true
            (Obs.Metrics.get
               (Obs.Metrics.of_recorder recorder)
               Obs.Metrics.Ccs_rounds
            > 0);
          check bool "ccs spans present" true
            (List.mem Obs.Subsystem.Ccs (Obs.Trace.subsystems trace));
          let b = Buffer.create 4096 in
          Obs.Trace.to_chrome trace b;
          (match Obs.Trace.validate_string (Buffer.contents b) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("counterexample trace invalid: " ^ e));
          check Alcotest.string "the refill dumps the same bytes"
            v.Mc.Explore.blackbox
            (Obs.Postmortem.dump_string recorder w.Obs.Postmortem.verdicts))

(* [Attrib.index] is written out by hand: it must number [sites] densely
   in order, and no two sites may share a report row. *)
let test_attrib_sites () =
  List.iteri
    (fun i s -> check int (Obs.Attrib.name s) i (Obs.Attrib.index s))
    Obs.Attrib.sites;
  let rows =
    List.map
      (fun s -> (Obs.Subsystem.name (Obs.Attrib.sub s), Obs.Attrib.name s))
      Obs.Attrib.sites
  in
  check int "distinct (subsystem, probe) rows" (List.length rows)
    (List.length (List.sort_uniq compare rows));
  let a = Obs.Attrib.create () in
  Obs.Attrib.enter a Obs.Attrib.Totem_join;
  Obs.Attrib.leave a;
  match Obs.Attrib.report a with
  | [ r ] ->
      check Alcotest.string "probe" "m-join" r.Obs.Attrib.probe;
      check int "calls" 1 r.Obs.Attrib.calls
  | rows -> Alcotest.failf "expected one row, got %d" (List.length rows)

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
        Alcotest.test_case "metrics gauges/hists" `Quick
          test_metrics_gauges_hists;
        Alcotest.test_case "trace capacity + clear" `Quick
          test_trace_capacity_and_clear;
        Alcotest.test_case "chrome export round-trip" `Quick
          test_chrome_roundtrip;
        Alcotest.test_case "chrome file round-trip" `Quick
          test_chrome_file_roundtrip;
        Alcotest.test_case "validator rejects bad traces" `Quick
          test_validator_rejects;
        Alcotest.test_case "sink gating + late attach" `Quick
          test_sink_gating_and_late_attach;
        Alcotest.test_case "trace_steps flag" `Quick test_trace_steps_flag;
        Alcotest.test_case "batched broadcast per-message records" `Quick
          test_batch_per_message_records;
        Alcotest.test_case "mid-batch detach split" `Quick
          test_batch_mid_detach_split;
        QCheck_alcotest.to_alcotest prop_skew_trace_matches_samples;
        Alcotest.test_case "stream fold = component counters" `Quick
          test_fold_matches_components;
        Alcotest.test_case "wrapped ring exports a valid trace" `Quick
          test_wrapped_ring_exports_valid_trace;
        Alcotest.test_case "counterexample span trace" `Quick
          test_counterexample_blackbox;
        Alcotest.test_case "attrib sites" `Quick test_attrib_sites;
      ] );
  ]
