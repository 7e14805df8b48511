(* Tests for lib/obs: the metrics registry, the Chrome writer (its bytes
   pinned for both sources), the span buffer and the validator, the
   single-gate sink, the per-message records of batched network
   deliveries, the §3.4 cross-check between the skew experiment's
   samples and the stream's [ccs-round] spans, the stream fold against
   the components' own counters, and the export of a ring that wrapped
   mid-round. *)

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
(* The Chrome writer, its span buffer, and the validator               *)

let sub = Obs.Subsystem.Ccs

(* What a writer puts into a file, as a string. *)
let written write =
  let file = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      write file;
      In_channel.with_open_bin file In_channel.input_all)

let test_trace_capacity () =
  let tr = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Trace.span_begin tr ~ts_ns:(i * 1000) ~pid:1 ~sub ~name:"x" ~args:[]
  done;
  check int "kept at capacity" 4 (Obs.Trace.length tr);
  check int "excess counted" 2 (Obs.Trace.dropped tr)

(* The decoded window, one tuple per Chrome event. *)
let decode r =
  let acc = ref [] in
  Obs.Recorder.chrome_events r (fun ~ph ~ts_ns:_ ~pid ~sub ~name ~args ->
      acc := (ph, pid, sub, name, args) :: !acc);
  List.rev !acc

(* The window as the flush writes it. *)
let chrome_json r =
  written (fun file ->
      Out_channel.with_open_text file (fun oc ->
          Obs.Trace.write_chrome oc (Obs.Recorder.chrome_events r)))

let sample_recorder () =
  let r = Obs.Recorder.create () in
  Obs.Recorder.emit r ~kind:Obs.Recorder.k_ccs_open ~ts_us:1 ~node:1 ~a:1 ~b:0;
  Obs.Recorder.emit r ~kind:Obs.Recorder.k_send ~ts_us:1 ~node:2 ~a:1 ~b:0;
  Obs.Recorder.emit r ~kind:Obs.Recorder.k_ccs_settle ~ts_us:2 ~node:1 ~a:1
    ~b:(-3);
  Obs.Recorder.emit r ~kind:Obs.Recorder.k_token ~ts_us:2 ~node:2 ~a:5 ~b:4;
  r

let test_chrome_roundtrip () =
  match Obs.Trace.validate_string (chrome_json (sample_recorder ())) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check int "events" 4 s.Obs.Trace.v_events;
      check int "pids" 2 s.Obs.Trace.v_pids;
      check (Alcotest.list Alcotest.string) "subsystems named"
        [ "ccs"; "netsim"; "totem" ] s.Obs.Trace.v_subsystems

let test_chrome_file_roundtrip () =
  let tr = Obs.Trace.create () in
  Obs.Trace.span_begin tr ~ts_ns:1_000 ~pid:0 ~sub ~name:"phase" ~args:[];
  Obs.Trace.span_end tr ~ts_ns:2_000 ~pid:0 ~sub ~name:"phase" ~args:[];
  let file = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.write_chrome_file tr file;
      match Obs.Trace.validate_file file with
      | Error e -> Alcotest.fail e
      | Ok s -> check int "events from file" 2 s.Obs.Trace.v_events)

(* Each rejected input must be rejected for its own reason. *)
let test_validator_rejects () =
  let rejects what ~reason json =
    match Obs.Trace.validate_string json with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error e ->
        let n = String.length reason in
        let rec names i =
          i + n <= String.length e
          && (String.sub e i n = reason || names (i + 1))
        in
        if not (names 0) then
          Alcotest.failf "%s rejected for %S, not for %S" what e reason
  in
  let event fields =
    {|{"traceEvents":[{"ph":"I","pid":1,"tid":4,|} ^ fields ^ "}]}"
  in
  rejects "malformed JSON" ~reason:"not well-formed" "{ not json";
  rejects "non-array traceEvents" ~reason:"not an array"
    {|{"traceEvents": 3}|};
  rejects "a \\u escape without four hex digits" ~reason:"\\u escape"
    (event {|"ts":1,"name":"\uZZZZ"|});
  rejects "a number with a leading +" ~reason:"malformed number"
    (event {|"ts":1,"y":+1|});
  rejects "a number with a leading ." ~reason:"malformed number"
    (event {|"ts":.5|});
  rejects "a number with a trailing ." ~reason:"malformed number"
    (event {|"ts":5.|});
  rejects "a raw control character in a string" ~reason:"control character"
    (event "\"ts\":1,\"name\":\"a\tb\"");
  rejects "a lower-case instant" ~reason:"unknown ph"
    {|{"traceEvents":[{"ph":"i","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|};
  (* timestamps running backwards on one (pid, tid) row *)
  rejects "non-monotone ts" ~reason:"ts 1.000 < 2.000"
    {|{"traceEvents":[
      {"ph":"I","ts":2.000,"pid":1,"tid":4,"name":"a","s":"t"},
      {"ph":"I","ts":1.000,"pid":1,"tid":4,"name":"b","s":"t"}]}|};
  rejects "End-without-Begin" ~reason:"span end without begin"
    {|{"traceEvents":[
      {"ph":"E","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|};
  (* a span still open when the capture ends is fine *)
  let open_at_end =
    {|{"traceEvents":[
      {"ph":"B","ts":1.000,"pid":1,"tid":4,"name":"a"}]}|}
  in
  match Obs.Trace.validate_string open_at_end with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("open span rejected: " ^ e)

(* The exact bytes of both sources through the one writer, and of the
   ints it formats.  The ring (capacity 10, 11 records) wrapped past
   node 1's [ccs-open]: its settle is dropped, though the [ccs-offset]
   before it stays an instant.  Node 2's settle carries its offset;
   node 3 drops one unbatched and one batched message; node 4's ring
   turned operational; the bridge opened and closed a round.  Both
   expected files are what the decode-to-buffer exporter this writer
   replaced wrote for the same input. *)
let test_golden_chrome () =
  List.iter
    (fun n ->
      let b = Buffer.create 24 in
      Obs.Out.int b n;
      check Alcotest.string "digit loop" (string_of_int n) (Buffer.contents b))
    [ 0; 7; -7; 10; -1000; max_int; min_int ];
  let module R = Obs.Recorder in
  let r = R.create ~capacity:10 () in
  let e kind ts_us node a b = R.emit r ~kind ~ts_us ~node ~a ~b in
  e R.k_ccs_open 10 1 1 0;
  e R.k_ccs_offset 11 1 (-4) 2;
  e R.k_ccs_settle 12 1 1 2;
  e R.k_ccs_open 20 2 2 0;
  e R.k_ccs_offset 29 2 (-7) 3;
  e R.k_ccs_settle 30 2 2 3;
  e R.k_drop 31 3 1 (R.drop_b ~reason:0 ~pos:(-1));
  e R.k_drop 32 3 1 (R.drop_b ~reason:2 ~pos:1);
  e R.k_operational 40 4 5 (R.operational_b ~members:3 ~rep:1);
  e R.k_bridge_open 50 0 7 0;
  e R.k_bridge_close 1234567 0 7 3;
  let process_name pid =
    if pid = 0 then "bridge \"0\"" else Printf.sprintf "node %d" pid
  in
  check Alcotest.string "ring"
    {|{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"bridge \"0\""}},
{"name":"thread_name","ph":"M","pid":0,"tid":7,"args":{"name":"hier"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"node 1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"ccs"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"node 2"}},
{"name":"thread_name","ph":"M","pid":2,"tid":4,"args":{"name":"ccs"}},
{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"node 3"}},
{"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"netsim"}},
{"name":"process_name","ph":"M","pid":4,"tid":0,"args":{"name":"node 4"}},
{"name":"thread_name","ph":"M","pid":4,"tid":2,"args":{"name":"totem"}},
{"name":"ccs-offset","ph":"I","ts":11.000,"pid":1,"tid":4,"s":"t","args":{"offset_us":-4,"adjustment_us":2}},
{"name":"ccs-round","ph":"B","ts":20.000,"pid":2,"tid":4,"args":{"round":2,"thread":0}},
{"name":"ccs-offset","ph":"I","ts":29.000,"pid":2,"tid":4,"s":"t","args":{"offset_us":-7,"adjustment_us":3}},
{"name":"ccs-round","ph":"E","ts":30.000,"pid":2,"tid":4,"args":{"round":2,"adjustment_us":3,"offset_us":-7}},
{"name":"drop","ph":"I","ts":31.000,"pid":3,"tid":1,"s":"t","args":{"src":1,"reason":0}},
{"name":"drop","ph":"I","ts":32.000,"pid":3,"tid":1,"s":"t","args":{"src":1,"reason":2,"pos":1}},
{"name":"operational","ph":"I","ts":40.000,"pid":4,"tid":2,"s":"t","args":{"gen":5,"members":3,"rep":1}},
{"name":"bridge-round","ph":"B","ts":50.000,"pid":0,"tid":7,"args":{"round":7}},
{"name":"bridge-round","ph":"E","ts":1234567.000,"pid":0,"tid":7,"args":{"round":7,"offers":3}}
],"displayTimeUnit":"ms"}
|}
    (written (fun file ->
         Out_channel.with_open_text file (fun oc ->
             Obs.Trace.write_chrome ~process_name oc (R.chrome_events r))));
  let tr = Obs.Trace.create () in
  let scenario = Obs.Subsystem.Scenario and rpc = Obs.Subsystem.Rpc in
  Obs.Trace.span_begin tr ~ts_ns:0 ~pid:0 ~sub:scenario
    ~name:"workload fig5_rpc" ~args:[ ("id", 1); ("parent", 0) ];
  Obs.Trace.span_begin tr ~ts_ns:1_500 ~pid:0 ~sub:rpc ~name:"call"
    ~args:[ ("id", 2); ("parent", 1) ];
  Obs.Trace.span_end tr ~ts_ns:2_000_001 ~pid:0 ~sub:rpc ~name:"call"
    ~args:[ ("id", 2) ];
  Obs.Trace.span_end tr ~ts_ns:3_000_000 ~pid:0 ~sub:scenario
    ~name:"workload fig5_rpc" ~args:[ ("id", 1) ];
  check Alcotest.string "span buffer"
    {|{"traceEvents":[
{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"ctsbench"}},
{"name":"thread_name","ph":"M","pid":0,"tid":6,"args":{"name":"rpc"}},
{"name":"thread_name","ph":"M","pid":0,"tid":8,"args":{"name":"scenario"}},
{"name":"workload fig5_rpc","ph":"B","ts":0.000,"pid":0,"tid":8,"args":{"id":1,"parent":0}},
{"name":"call","ph":"B","ts":1.500,"pid":0,"tid":6,"args":{"id":2,"parent":1}},
{"name":"call","ph":"E","ts":2000.001,"pid":0,"tid":6,"args":{"id":2}},
{"name":"workload fig5_rpc","ph":"E","ts":3000.000,"pid":0,"tid":8,"args":{"id":1}}
],"displayTimeUnit":"ms"}
|}
    (written
       (Obs.Trace.write_chrome_file ~process_name:(fun _ -> "ctsbench") tr))

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

(* The arguments of every decoded event named [name], as (pid, args). *)
let events_named r name =
  List.filter_map
    (fun (_, pid, _, n, args) -> if n = name then Some (pid, args) else None)
    (decode r)

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
          (fun (p, args) -> if p = pid then List.assoc_opt "pos" args else None)
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
    (List.filter_map (fun (_, args) -> List.assoc_opt "pos" args) drops);
  List.iter
    (fun (_, args) ->
      check (Alcotest.option int) "No_port reason" (Some 2)
        (List.assoc_opt "reason" args))
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
      let events = decode recorder in
      let metrics = Obs.Metrics.of_recorder recorder in
      (* the whole stack showed up in the trace *)
      let subsystems =
        List.sort_uniq compare (List.map (fun (_, _, sub, _, _) -> sub) events)
      in
      if List.length subsystems < 6 then
        QCheck.Test.fail_reportf "only %d subsystems traced"
          (List.length subsystems);
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
        List.filter_map
          (fun (ph, p, _, name, args) ->
            if ph = Obs.Trace.End && name = "ccs-round" && p = pid then
              Some args
            else None)
          events
      in
      for pid = 1 to 3 do
        ignore
          (List.fold_left
             (fun prev args ->
               let r =
                 Option.value ~default:(-1) (List.assoc_opt "round" args)
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
        (fun args (s : E.round_sample) ->
          let off =
            Option.value ~default:min_int (List.assoc_opt "offset_us" args)
          in
          if off <> Span.to_us s.E.offset then
            QCheck.Test.fail_reportf
              "winner offset mismatch: trace %d us, sample %d us" off
              (Span.to_us s.E.offset))
        ends samples;
      ignore
        (List.fold_left
           (fun prev_off args ->
             let off =
               Option.value ~default:min_int (List.assoc_opt "offset_us" args)
             in
             let adj =
               Option.value ~default:min_int
                 (List.assoc_opt "adjustment_us" args)
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
  let ends =
    List.filter
      (fun (ph, _, _, name, _) -> name = "ccs-round" && ph = Obs.Trace.End)
      (decode ring)
  in
  check bool "ccs-round spans survive" true (ends <> []);
  let settles = ref 0 in
  Obs.Recorder.iter ring (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
      if kind = Obs.Recorder.k_ccs_settle then incr settles);
  check bool "the orphaned settle was dropped" true
    (List.length ends < !settles);
  match Obs.Trace.validate_string (chrome_json ring) with
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
          let events = decode recorder in
          check bool "trace nonempty" true (events <> []);
          check bool "ccs rounds counted" true
            (Obs.Metrics.get
               (Obs.Metrics.of_recorder recorder)
               Obs.Metrics.Ccs_rounds
            > 0);
          check bool "ccs spans present" true
            (List.exists
               (fun (_, _, sub, _, _) -> sub = Obs.Subsystem.Ccs)
               events);
          (match Obs.Trace.validate_string (chrome_json recorder) with
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
        Alcotest.test_case "trace capacity" `Quick test_trace_capacity;
        Alcotest.test_case "chrome export round-trip" `Quick
          test_chrome_roundtrip;
        Alcotest.test_case "chrome file round-trip" `Quick
          test_chrome_file_roundtrip;
        Alcotest.test_case "validator rejects bad traces" `Quick
          test_validator_rejects;
        Alcotest.test_case "golden chrome bytes" `Quick test_golden_chrome;
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
