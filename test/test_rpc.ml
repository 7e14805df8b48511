(* Tests for the RPC layer: invocation, correlation, duplicate-reply
   suppression, timeouts, timed invocations and causal timestamps. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id
module Cluster = Scenario.Cluster
module Replica = Repl.Replica

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let str = Alcotest.string

type rig = {
  cluster : Cluster.t;
  replicas : Replica.t array;
  client : Rpc.Client.t;
}

let echo_app _service =
  {
    Replica.handle = (fun ~thread:_ ~op ~arg -> op ^ ":" ^ arg);
    snapshot = (fun () -> "");
    restore = ignore;
  }

let make ?(seed = 1L) ?(replicas = 2) ?(app = fun _cluster _node -> echo_app)
    () =
  let cluster = Cluster.create ~seed ~nodes:(replicas + 1) () in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:(List.init (replicas + 1) Fun.id));
  let config =
    {
      Replica.default_config with
      initial_members = List.init replicas (fun k -> Nid.of_int (k + 1));
    }
  in
  let reps =
    Array.init replicas (fun k ->
        Replica.create cluster.Cluster.eng
          ~endpoint:cluster.Cluster.nodes.(k + 1).Cluster.endpoint
          ~group:cluster.Cluster.server_group
          ~clock:cluster.Cluster.nodes.(k + 1).Cluster.clock ~config
          ~app:(app cluster (k + 1)) ())
  in
  let client =
    Rpc.Client.create cluster.Cluster.eng
      ~endpoint:cluster.Cluster.nodes.(0).Cluster.endpoint
      ~my_group:cluster.Cluster.client_group
      ~server_group:cluster.Cluster.server_group ()
  in
  Cluster.run_until cluster (fun () ->
      List.length
        (Gcs.Endpoint.members_of cluster.Cluster.nodes.(0).Cluster.endpoint
           cluster.Cluster.server_group)
      = replicas);
  { cluster; replicas = reps; client }

let run_client rig f =
  let finished = ref false in
  Dsim.Fiber.spawn rig.cluster.Cluster.eng (fun () ->
      f rig.client;
      finished := true);
  Cluster.run_until ~limit:(Span.of_sec 60) rig.cluster (fun () -> !finished);
  Cluster.run_for rig.cluster (Span.of_ms 20)

let test_echo_roundtrip () =
  let rig = make () in
  run_client rig (fun client ->
      check str "payload echoed" "ping:hello"
        (Rpc.Client.invoke client ~op:"ping" ~arg:"hello"))

let test_requests_correlated () =
  (* interleaved operations come back with the right results *)
  let rig = make () in
  run_client rig (fun client ->
      for i = 1 to 10 do
        let r =
          Rpc.Client.invoke client ~op:"op" ~arg:(string_of_int i)
        in
        check str "matched" ("op:" ^ string_of_int i) r
      done);
  check int "10 requests sent" 10 (Rpc.Client.requests_sent rig.client)

let test_duplicate_replies_counted () =
  let rig = make ~replicas:3 () in
  run_client rig (fun client ->
      ignore (Rpc.Client.invoke client ~op:"x" ~arg:"" : string));
  (* 3 active replicas reply; the client keeps the first *)
  check int "two duplicates" 2 (Rpc.Client.duplicate_replies rig.client)

let test_timeout_and_late_reply_discarded () =
  let rig = make () in
  run_client rig (fun client ->
      (* a timeout far too short for the round trip *)
      (try
         ignore
           (Rpc.Client.invoke ~timeout:(Span.of_us 10) client ~op:"slow"
              ~arg:""
             : string);
         Alcotest.fail "expected timeout"
       with Rpc.Client.Timeout -> ());
      (* the late reply must not leak into the next invocation *)
      let r =
        Rpc.Client.invoke ~timeout:(Span.of_ms 100) client ~op:"next" ~arg:"1"
      in
      check str "next invocation unaffected" "next:1" r)

(* The fig5 rig: the client on node 0, three active time servers. *)
let fig5 ?seed () =
  make ?seed ~replicas:3
    ~app:(fun cluster node ->
      Scenario.Apps.time_server cluster ~node ~use_cts:true ())
    ()

let test_closed_loop_keeps_queue_shallow () =
  (* A closed loop of timed calls, one outstanding, queues no per-call
     timer and spawns no per-call fiber: the watchdog is per client. *)
  let rig = fig5 () in
  let eng = rig.cluster.Cluster.eng in
  let sink = Dsim.Engine.obs eng in
  let r = Obs.Recorder.create ~capacity:(1 lsl 20) () in
  let calls = 2_000 in
  run_client rig (fun client ->
      Dsim.Engine.reset_queue_high_water eng;
      Obs.Sink.set_recorder sink (Some r);
      for _ = 1 to calls do
        ignore
          (Rpc.Client.invoke ~timeout:(Span.of_sec 1) client
             ~op:"gettimeofday" ~arg:""
            : string)
      done;
      Obs.Sink.set_recorder sink None);
  let hwm = Dsim.Engine.queue_high_water eng in
  if hwm > 200 then Alcotest.failf "queue high water %d > 200" hwm;
  check int "no record lost" 0 (Obs.Recorder.dropped r);
  let spawns = ref 0 and begins = ref 0 in
  Obs.Recorder.iter r (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
      if kind = Obs.Recorder.k_fiber_spawn then incr spawns;
      if kind = Obs.Recorder.k_rpc_begin then incr begins);
  check int "every call recorded" calls !begins;
  check int "no fiber spawned" 0 !spawns

(* A server group that never answers: node 1 joins it and records the
   sequence number of every request it is delivered.  [reply] answers a
   recorded request from node 1, at the caller's chosen moment. *)
type silent = {
  s_cluster : Cluster.t;
  s_client : Rpc.Client.t;
  seqs : int list ref; (* newest first *)
  reply : seq:int -> unit;
}

let silent () =
  let cluster = Cluster.create ~seed:1L ~nodes:2 () in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1 ]);
  let my_group = Gcs.Group_id.of_int 90 and group = Gcs.Group_id.of_int 91 in
  let ep k = cluster.Cluster.nodes.(k).Cluster.endpoint in
  let seqs = ref [] and headers = Hashtbl.create 4 in
  Gcs.Endpoint.join_group (ep 1) group ~handler:(function
    | Gcs.Endpoint.Deliver { msg; _ } -> (
        match msg.Gcs.Msg.body with
        | Rpc.Wire.Request _ ->
            seqs := msg.Gcs.Msg.header.msg_seq :: !seqs;
            Hashtbl.replace headers msg.Gcs.Msg.header.msg_seq
              msg.Gcs.Msg.header
        | _ -> ())
    | _ -> ());
  let client =
    Rpc.Client.create cluster.Cluster.eng ~endpoint:(ep 0) ~my_group
      ~server_group:group ()
  in
  Cluster.run_until cluster (fun () ->
      List.length (Gcs.Endpoint.members_of (ep 0) group) = 1
      && List.length (Gcs.Endpoint.members_of (ep 1) my_group) = 1);
  let reply ~seq =
    Gcs.Endpoint.multicast (ep 1)
      (Rpc.Wire.reply ~request_header:(Hashtbl.find headers seq)
         ~replica:(Nid.of_int 1) ~result:"late" ())
  in
  { s_cluster = cluster; s_client = client; seqs; reply }

let now_of (c : Cluster.t) = Dsim.Engine.now c.Cluster.eng

(* Run [f] as a client fiber; return when it raised [Timeout] and when it
   started. *)
let timeout_instant cluster client f =
  let started = ref Time.epoch and raised = ref None in
  let finished = ref false in
  Dsim.Fiber.spawn cluster.Cluster.eng (fun () ->
      started := now_of cluster;
      (try ignore (f client : string)
       with Rpc.Client.Timeout -> raised := Some (now_of cluster));
      finished := true);
  Cluster.run_until ~limit:(Span.of_sec 60) cluster (fun () -> !finished);
  match !raised with
  | Some at -> Time.diff at !started
  | None -> Alcotest.fail "expected Timeout"

let span = Alcotest.testable Span.pp Span.equal

let test_timeout_at_exact_deadline () =
  let s = silent () in
  check span "raised at start + timeout" (Span.of_ms 50)
    (timeout_instant s.s_cluster s.s_client
       (Rpc.Client.invoke ~timeout:(Span.of_ms 50) ~op:"x" ~arg:""))

let test_short_timeout_after_long_answered_call () =
  (* The answered 1 s call leaves the watchdog armed a second out; a
     10 ms call made after it must still expire at its own deadline. *)
  let rig = make () in
  run_client rig (fun client ->
      check str "answered" "a:1"
        (Rpc.Client.invoke ~timeout:(Span.of_sec 1) client ~op:"a" ~arg:"1"));
  Array.iter Replica.crash rig.replicas;
  check span "raised at +10 ms" (Span.of_ms 10)
    (timeout_instant rig.cluster rig.client
       (Rpc.Client.invoke ~timeout:(Span.of_ms 10) ~op:"b" ~arg:""))

let test_retry_reuses_seq () =
  let s = silent () in
  let sent0 = Rpc.Client.requests_sent s.s_client in
  check span "raised at start + 2 x timeout" (Span.of_ms 40)
    (timeout_instant s.s_cluster s.s_client
       (Rpc.Client.invoke ~timeout:(Span.of_ms 20) ~retries:1 ~op:"x" ~arg:""));
  check int "two attempts sent" 2 (Rpc.Client.requests_sent s.s_client - sent0);
  match !(s.seqs) with
  | [ b; a ] -> check int "the retry re-sends the same seq" a b
  | l -> Alcotest.failf "server saw %d requests, expected 2" (List.length l)

let test_reply_at_deadline_loses () =
  (* Same seed, same world: each reply lands at the same instant every
     run, so a timeout of exactly the measured latency puts the reply on
     the deadline.  Two calls: A, then B.  A's timeout decides when the
     watchdog wakes, and so whether B's deadline event is queued before
     B's reply (armed when B starts) or after it (re-armed by a wake-up
     1 ns before B's deadline). *)
  let pair ~ta ?tb () =
    let rig = fig5 ~seed:3L () in
    let result = ref None in
    let call ?timeout client =
      snd (Rpc.Client.invoke_timed ?timeout client ~op:"gettimeofday" ~arg:"")
    in
    run_client rig (fun client ->
        let la = call ~timeout:ta client in
        result :=
          Some
            ( la,
              try Ok (call ?timeout:tb client)
              with Rpc.Client.Timeout -> Error () ));
    Option.get !result
  in
  let la, lb =
    match pair ~ta:(Span.of_sec 1) () with
    | la, Ok lb -> (la, lb)
    | _, Error () -> Alcotest.fail "untimed call"
  in
  let ns = Span.of_ns 1 in
  let wake_just_before = Span.sub (Span.add la lb) ns in
  check bool "deadline queued first: Timeout" true
    (snd (pair ~ta:(Span.of_sec 1) ~tb:lb ()) = Error ());
  check bool "reply queued first: still Timeout" true
    (snd (pair ~ta:wake_just_before ~tb:lb ()) = Error ());
  check bool "1 ns before the deadline: answered, same latency" true
    (snd (pair ~ta:wake_just_before ~tb:(Span.add lb ns) ()) = Ok lb)

let test_late_reply_fills_nothing () =
  let s = silent () in
  let eng = s.s_cluster.Cluster.eng in
  check span "first call expires" (Span.of_ms 5)
    (timeout_instant s.s_cluster s.s_client
       (Rpc.Client.invoke ~timeout:(Span.of_ms 5) ~op:"x" ~arg:""));
  let expired = List.hd !(s.seqs) in
  (* answer the expired call while a second call is outstanding: the
     reply must neither fill the second call nor count as a duplicate *)
  Dsim.Engine.schedule eng (Span.of_ms 1) (fun () -> s.reply ~seq:expired);
  check span "second call expires on its own deadline" (Span.of_ms 30)
    (timeout_instant s.s_cluster s.s_client
       (Rpc.Client.invoke ~timeout:(Span.of_ms 30) ~op:"y" ~arg:""));
  check int "the late reply retired the expired call" 0
    (Rpc.Client.duplicate_replies s.s_client);
  (* the pipe works: a second answer to it is a duplicate *)
  s.reply ~seq:expired;
  Cluster.run_for s.s_cluster (Span.of_ms 20);
  check int "a second late reply is a duplicate" 1
    (Rpc.Client.duplicate_replies s.s_client)

let test_invoke_timed_measures_latency () =
  let rig = make () in
  run_client rig (fun client ->
      let _, lat = Rpc.Client.invoke_timed client ~op:"t" ~arg:"" in
      (* the simulated round trip through the ring takes hundreds of us *)
      check bool "latency positive" true Span.(lat > Span.of_us 50);
      check bool "latency sane" true Span.(lat < Span.of_ms 50))

let test_no_timestamp_without_clock_reads () =
  let rig = make () in
  run_client rig (fun client ->
      ignore (Rpc.Client.invoke client ~op:"x" ~arg:"" : string);
      (* the echo app never reads the clock, so no timestamp circulates *)
      check bool "no timestamp" true
        (Rpc.Client.last_timestamp rig.client = None));
  ignore rig.replicas

let test_observe_timestamp_monotone () =
  let eng = Dsim.Engine.create () in
  let net = Netsim.Network.create eng Netsim.Network.default_config in
  let ep = Gcs.Endpoint.create eng net ~me:(Nid.of_int 0) ~bootstrap:true () in
  let client =
    Rpc.Client.create eng ~endpoint:ep ~my_group:(Gcs.Group_id.of_int 1)
      ~server_group:(Gcs.Group_id.of_int 2) ()
  in
  Rpc.Client.observe_timestamp client (Time.of_us 100);
  Rpc.Client.observe_timestamp client (Time.of_us 50);
  check bool "keeps the max" true
    (Rpc.Client.last_timestamp client = Some (Time.of_us 100));
  Rpc.Client.observe_timestamp client (Time.of_us 200);
  check bool "advances" true
    (Rpc.Client.last_timestamp client = Some (Time.of_us 200))

let test_reply_header_swaps_groups () =
  let req =
    Rpc.Wire.request ~src_grp:(Gcs.Group_id.of_int 7)
      ~dst_grp:(Gcs.Group_id.of_int 8) ~conn_id:42 ~msg_seq:5 ~op:"o" ~arg:"a"
      ()
  in
  let rep =
    Rpc.Wire.reply ~request_header:req.Gcs.Msg.header
      ~replica:(Nid.of_int 3) ~result:"r" ()
  in
  check int "src is the server group" 8
    (Gcs.Group_id.to_int rep.Gcs.Msg.header.src_grp);
  check int "dst is the client group" 7
    (Gcs.Group_id.to_int rep.Gcs.Msg.header.dst_grp);
  check int "conn echoed" 42 rep.Gcs.Msg.header.conn_id;
  check int "seq echoed" 5 rep.Gcs.Msg.header.msg_seq

let suites =
  [
    ( "rpc",
      [
        Alcotest.test_case "echo roundtrip" `Quick test_echo_roundtrip;
        Alcotest.test_case "correlation" `Quick test_requests_correlated;
        Alcotest.test_case "duplicate replies" `Quick
          test_duplicate_replies_counted;
        Alcotest.test_case "timeout + late reply" `Quick
          test_timeout_and_late_reply_discarded;
        Alcotest.test_case "closed loop: no per-call timer or fiber" `Quick
          test_closed_loop_keeps_queue_shallow;
        Alcotest.test_case "timeout at the exact deadline" `Quick
          test_timeout_at_exact_deadline;
        Alcotest.test_case "short timeout after a long answered call" `Quick
          test_short_timeout_after_long_answered_call;
        Alcotest.test_case "retry reuses the seq" `Quick test_retry_reuses_seq;
        Alcotest.test_case "reply at the deadline loses" `Quick
          test_reply_at_deadline_loses;
        Alcotest.test_case "late reply fills nothing" `Quick
          test_late_reply_fills_nothing;
        Alcotest.test_case "invoke_timed" `Quick
          test_invoke_timed_measures_latency;
        Alcotest.test_case "no spurious timestamps" `Quick
          test_no_timestamp_without_clock_reads;
        Alcotest.test_case "observe_timestamp" `Quick
          test_observe_timestamp_monotone;
        Alcotest.test_case "reply header" `Quick test_reply_header_swaps_groups;
      ] );
  ]
