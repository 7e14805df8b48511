(* Tests for the simulated network. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Net = Netsim.Network
module Nid = Netsim.Node_id

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let n = Nid.of_int

let constant_net eng us =
  Net.create eng { Net.latency = Netsim.Latency.Constant (Span.of_us us); loss = 0. }

let test_unicast_delivery () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = ref [] in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src msg ->
      got := (Nid.to_int src, msg, Time.to_us (Dsim.Engine.now eng)) :: !got);
  Net.send net ~src:(n 0) ~dst:(n 1) "hello";
  Dsim.Engine.run eng;
  match !got with
  | [ (0, "hello", 10) ] -> ()
  | _ -> Alcotest.fail "unexpected delivery"

let test_broadcast_excludes_sender () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Net.broadcast net ~src:(n 2) "x";
  Dsim.Engine.run eng;
  check (Alcotest.list int) "everyone but sender" [ 1; 1; 0; 1 ]
    (Array.to_list counts)

let test_loopback_unicast_allowed () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> incr got);
  Net.send net ~src:(n 0) ~dst:(n 0) ();
  Dsim.Engine.run eng;
  check int "self-send delivered" 1 !got

(* broadcast_many batches deliveries per destination but must keep
   per-message semantics: send order per path, one callback per message,
   and batch-absorbed messages sharing the batch's delivery instant. *)
let test_broadcast_many_order_and_count () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = Array.make 3 [] in
  for i = 0 to 2 do
    Net.attach net (n i) (fun ~src msg ->
        got.(i) <-
          (Nid.to_int src, msg, Time.to_us (Dsim.Engine.now eng)) :: got.(i))
  done;
  Net.broadcast_many net ~src:(n 0) [| "a"; "b"; "c"; "unused" |] ~n:3;
  Dsim.Engine.run eng;
  check int "sender got nothing" 0 (List.length got.(0));
  List.iter
    (fun i ->
      match List.rev got.(i) with
      | [ (0, "a", t1); (0, "b", t2); (0, "c", t3) ] ->
          check bool "FIFO timestamps" true (t1 <= t2 && t2 <= t3)
      | _ -> Alcotest.fail "per-message FIFO delivery violated")
    [ 1; 2 ];
  (* one sent-count per broadcast message, exactly as [broadcast] *)
  check int "per-message send stat" 3 (Net.stats net ~sent:true (n 0))

(* A batch must agree with the same messages sent by consecutive
   [broadcast] calls, payload-for-payload, on every destination. *)
let test_broadcast_many_matches_broadcasts () =
  let run use_many =
    let eng = Dsim.Engine.create () in
    let net = constant_net eng 7 in
    let got = Array.make 4 [] in
    for i = 0 to 3 do
      Net.attach net (n i) (fun ~src:_ msg -> got.(i) <- msg :: got.(i))
    done;
    let payloads = [| 10; 20; 30 |] in
    if use_many then Net.broadcast_many net ~src:(n 1) payloads ~n:3
    else Array.iter (fun p -> Net.broadcast net ~src:(n 1) p) payloads;
    Dsim.Engine.run eng;
    Array.map List.rev got
  in
  let batched = run true and plain = run false in
  Array.iteri
    (fun i msgs ->
      check (Alcotest.list int)
        (Printf.sprintf "node %d payload sequence" i)
        plain.(i) msgs)
    batched

let test_broadcast_many_respects_partition () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let counts = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> counts.(i) <- counts.(i) + 1)
  done;
  Net.partition net [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Net.broadcast_many net ~src:(n 0) [| "x"; "y" |] ~n:2;
  Dsim.Engine.run eng;
  check (Alcotest.list int) "only same-side peer reached" [ 0; 2; 0; 0 ]
    (Array.to_list counts);
  check int "cross-partition drops accounted" 4 (Net.packets_dropped net)

let test_broadcast_many_loss_per_message () =
  let eng = Dsim.Engine.create () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 5); loss = 0.5 }
  in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> incr got);
  let batch = [| "m" |] in
  for _ = 1 to 1000 do
    Net.broadcast_many net ~src:(n 0) batch ~n:1
  done;
  Dsim.Engine.run eng;
  (* An independent draw per (message, receiver): roughly half arrive. *)
  check bool "roughly half dropped" true (!got > 400 && !got < 600);
  check int "drop accounting" (1000 - !got) (Net.packets_dropped net)

let test_detach_drops_in_flight () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> incr got);
  Net.send net ~src:(n 0) ~dst:(n 1) ();
  Dsim.Engine.schedule eng (Span.of_us 5) (fun () -> Net.detach net (n 1));
  Dsim.Engine.run eng;
  check int "dropped at crashed node" 0 !got;
  check int "accounted as dropped" 1 (Net.packets_dropped net)

let test_partition_blocks_cross_traffic () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.partition net [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Net.broadcast net ~src:(n 0) ();
  Net.send net ~src:(n 2) ~dst:(n 3) ();
  Net.send net ~src:(n 2) ~dst:(n 0) ();
  Dsim.Engine.run eng;
  check (Alcotest.list int) "partition respected" [ 0; 1; 0; 1 ]
    (Array.to_list got);
  Net.heal net;
  Net.send net ~src:(n 2) ~dst:(n 0) ();
  Dsim.Engine.run eng;
  check int "healed" 1 got.(0)

let test_loss_drops_packets () =
  let eng = Dsim.Engine.create ~seed:5L () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 1); loss = 0.5 }
  in
  let got = ref 0 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> incr got);
  for _ = 1 to 1000 do
    Net.send net ~src:(n 0) ~dst:(n 1) ()
  done;
  Dsim.Engine.run eng;
  check bool "roughly half dropped" true (!got > 400 && !got < 600);
  check int "drop accounting" (1000 - !got) (Net.packets_dropped net)

let test_stats_counters () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 1 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  Net.send net ~src:(n 0) ~dst:(n 1) ();
  Net.broadcast net ~src:(n 0) ();
  Dsim.Engine.run eng;
  check int "sent" 2 (Net.stats net ~sent:true (n 0));
  check int "delivered" 2 (Net.stats net ~sent:false (n 1))

let test_attach_detach_attach_sorted () =
  (* The membership array must stay sorted through attach/detach/attach
     churn (incremental insert, not a wholesale re-sort), and a
     re-attached node must receive traffic again. *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = Array.make 6 0 in
  let attach i = Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1) in
  List.iter attach [ 4; 1; 5; 0; 3; 2 ];
  check bool "sorted after out-of-order attach" true
    (Net.nodes net = List.map n [ 0; 1; 2; 3; 4; 5 ]);
  Net.detach net (n 3);
  Net.detach net (n 0);
  check bool "sorted after detach" true
    (Net.nodes net = List.map n [ 1; 2; 4; 5 ]);
  attach 3;
  attach 0;
  check bool "sorted after re-attach" true
    (Net.nodes net = List.map n [ 0; 1; 2; 3; 4; 5 ]);
  Net.broadcast net ~src:(n 1) 42;
  Dsim.Engine.run eng;
  check int "re-attached node 3 hears broadcasts" 1 got.(3);
  check int "re-attached node 0 hears broadcasts" 1 got.(0);
  check int "sender excluded" 0 got.(1)

let test_partition_mask_after_churn () =
  (* Group masks must track re-attachment: a node that detaches and
     re-attaches keeps its partition-group membership (the mask is per
     node id, not per slot). *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = Array.make 4 0 in
  for i = 0 to 3 do
    Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.partition net [ [ n 0; n 1 ]; [ n 2; n 3 ] ];
  Net.detach net (n 1);
  Net.attach net (n 1) (fun ~src:_ _ -> got.(1) <- got.(1) + 1);
  Net.send net ~src:(n 0) ~dst:(n 1) 1;
  Net.send net ~src:(n 2) ~dst:(n 1) 2;
  Net.send net ~src:(n 3) ~dst:(n 2) 3;
  Dsim.Engine.run eng;
  check int "same-group unicast to re-attached node" 1 got.(1);
  check int "cross-group unicast still blocked" 1 got.(2);
  Net.heal net;
  Net.send net ~src:(n 2) ~dst:(n 1) 4;
  Dsim.Engine.run eng;
  check int "heal restores cross traffic" 2 got.(1)

let test_partition_group_limit () =
  (* One mask bit per group: the widest partition (61 groups on a 64-bit
     host) still isolates every node, and one group more is rejected. *)
  let max_groups = Sys.int_size - 2 in
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let nodes = max_groups + 1 in
  let got = Array.make nodes 0 in
  for i = 0 to nodes - 1 do
    Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
  done;
  Net.partition net (List.init max_groups (fun i -> [ n i ]));
  for i = 0 to nodes - 1 do
    Net.broadcast net ~src:(n i) ();
    Net.send net ~src:(n i) ~dst:(n i) ()
  done;
  Dsim.Engine.run eng;
  check (Alcotest.list int) "each group hears only itself"
    (List.init nodes (fun i -> if i < max_groups then 1 else 0))
    (Array.to_list got);
  check bool "one group more is rejected" true
    (match Net.partition net (List.init nodes (fun i -> [ n i ])) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_send_tracked_outcomes () =
  (* [send_tracked] reports the loss outcome the simulator already knows
     at send time: queued on the clean path, false under loss or across a
     partition. *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  check bool "clean send queued" true
    (Net.send_tracked net ~src:(n 0) ~dst:(n 1) 1);
  Net.partition net [ [ n 0 ]; [ n 1 ] ];
  check bool "partitioned send not queued" false
    (Net.send_tracked net ~src:(n 0) ~dst:(n 1) 2);
  Net.heal net;
  Net.set_loss net 0.5;
  (* Under loss the report must agree with the drop counter, send by
     send: false iff the packet was counted dropped. *)
  let disagreements = ref 0 and drops = ref 0 in
  for i = 0 to 49 do
    let before = Net.packets_dropped net in
    let queued = Net.send_tracked net ~src:(n 0) ~dst:(n 1) i in
    let dropped = Net.packets_dropped net > before in
    if queued = dropped then incr disagreements;
    if dropped then incr drops
  done;
  check int "tracked result always matches drop accounting" 0 !disagreements;
  check bool "loss 0.5 dropped some of 50 sends" true (!drops > 0)

let test_send_tracked_after_delay () =
  (* The deferred send arrives after delay + latency, and still respects
     per-path FIFO against a later plain send. *)
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 10 in
  let got = ref [] in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ v ->
      got := (v, Time.to_us (Dsim.Engine.now eng)) :: !got);
  check bool "deferred send queued" true
    (Net.send_tracked_after net ~delay:(Span.of_us 40) ~src:(n 0) ~dst:(n 1) 1);
  Dsim.Engine.run eng;
  (match !got with
  | [ (1, at) ] -> check int "arrives at delay + latency" 50 at
  | _ -> Alcotest.fail "expected exactly one delivery")

let test_double_attach_rejected () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 1 in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Alcotest.check_raises "double attach"
    (Invalid_argument "Network.attach: n0 already attached") (fun () ->
      Net.attach net (n 0) (fun ~src:_ _ -> ()))

let test_latency_models_positive () =
  let eng = Dsim.Engine.create ~seed:3L () in
  let rng = Dsim.Engine.rng eng in
  let models =
    [
      Netsim.Latency.Constant (Span.of_us 10);
      Netsim.Latency.Uniform { lo = Span.of_us 1; hi = Span.of_us 50 };
      Netsim.Latency.Gaussian { mu = Span.of_us 20; sigma = Span.of_us 30 };
      Netsim.Latency.calibrated ~wire:Netsim.Latency.default_wire;
    ]
  in
  List.iter
    (fun m ->
      for _ = 1 to 500 do
        let l = Netsim.Latency.sample rng m in
        if Span.(l < Span.of_us 1) then Alcotest.fail "latency below floor"
      done)
    models

let test_compiled_latency_draws_like_sample () =
  (* The per-network compiled form must consume the same random numbers
     and return the same latency as [sample], draw for draw: golden seeds
     depend on it. *)
  let module L = Netsim.Latency in
  let models =
    [
      ("calibrated", L.calibrated ~wire:L.default_wire);
      ("wan", L.wan ~wire:L.default_wan_wire);
      ("constant", L.Constant (Span.of_us 10));
      ("constant below floor", L.Constant Span.zero);
      ("uniform", L.Uniform { lo = Span.of_us 1; hi = Span.of_us 50 });
      ( "gaussian at the floor",
        L.Gaussian { mu = Span.of_us 20; sigma = Span.of_us 30 } );
      ( "gaussian mixture, unnormalized",
        L.Mixture
          [
            (2.0, L.Gaussian { mu = Span.of_us 5; sigma = Span.of_us 9 });
            (0.5, L.Gaussian { mu = Span.of_us 80; sigma = Span.of_us 4 });
            (1.5, L.Gaussian { mu = Span.of_us 30; sigma = Span.of_us 1 });
          ] );
      ( "nested mixture",
        L.Mixture
          [
            (0.5, L.calibrated ~wire:(Span.of_us 40));
            (0.3, L.Uniform { lo = Span.of_us 2; hi = Span.of_us 9 });
            (0.2, L.Constant (Span.of_us 7));
          ] );
    ]
  in
  List.iter
    (fun (name, m) ->
      let a = Dsim.Rng.create 42L and b = Dsim.Rng.create 42L in
      let c = L.compile m in
      for i = 1 to 100_000 do
        let want = L.sample a m and got = L.draw b c in
        if not (Span.equal want got) then
          Alcotest.failf "%s: draw %d is %a, sample gives %a" name i Span.pp
            got Span.pp want
      done;
      check bool (name ^ ": streams in step") true
        (Dsim.Rng.int64 a = Dsim.Rng.int64 b))
    models

let test_calibrated_peak_near_wire () =
  let eng = Dsim.Engine.create ~seed:9L () in
  let rng = Dsim.Engine.rng eng in
  let model = Netsim.Latency.calibrated ~wire:(Span.of_us 51) in
  let h = Stats.Histogram.create ~bin_width:4. () in
  for _ = 1 to 20_000 do
    Stats.Histogram.add h
      (float_of_int (Span.to_us (Netsim.Latency.sample rng model)))
  done;
  let peak = Stats.Histogram.bin_mid h (Stats.Histogram.mode_bin h) in
  check bool "peak density near 51us" true (peak > 40. && peak < 62.)

let prop_broadcast_reaches_all_connected =
  QCheck.Test.make ~count:50 ~name:"broadcast reaches every attached node"
    QCheck.(int_range 2 20)
    (fun nodes ->
      let eng = Dsim.Engine.create () in
      let net =
        Net.create eng
          { Net.latency = Netsim.Latency.Constant (Span.of_us 1); loss = 0. }
      in
      let got = Array.make nodes 0 in
      for i = 0 to nodes - 1 do
        Net.attach net (n i) (fun ~src:_ _ -> got.(i) <- got.(i) + 1)
      done;
      Net.broadcast net ~src:(n 0) ();
      Dsim.Engine.run eng;
      got.(0) = 0
      && Array.for_all (( = ) 1) (Array.sub got 1 (nodes - 1)))

(* The packet log is the engine's record stream: every send, delivery
   and drop is one netsim record. *)
let recorded eng =
  let r = Obs.Recorder.create () in
  let s = Obs.Sink.create () in
  Obs.Sink.set_recorder s (Some r);
  Dsim.Engine.set_obs eng s;
  r

let records r =
  let out = ref [] in
  Obs.Recorder.iter r (fun ~kind ~ts_us ~node ~a ~b ->
      out := (kind, ts_us, node, a, b) :: !out);
  List.rev !out

let test_trace_records_events () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let r = recorded eng in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  Net.send net ~src:(n 0) ~dst:(n 1) "x";
  Net.broadcast net ~src:(n 1) "y";
  Dsim.Engine.run eng;
  let es = records r in
  (* 2 sends + 2 deliveries *)
  check int "events recorded" 4 (List.length es);
  let sends =
    List.filter (fun (kind, _, _, _, _) -> kind = Obs.Recorder.k_send) es
  in
  check int "two sends" 2 (List.length sends);
  check (Alcotest.list int) "send destinations (-1 = broadcast)" [ 1; -1 ]
    (List.map (fun (_, _, _, dst, _) -> dst) sends);
  check bool "timestamps ordered" true
    (let rec mono = function
       | (_, a, _, _, _) :: ((_, b, _, _, _) :: _ as rest) -> a <= b && mono rest
       | [ _ ] | [] -> true
     in
     mono es)

let test_trace_records_drops () =
  let eng = Dsim.Engine.create () in
  let net = constant_net eng 5 in
  let r = recorded eng in
  Net.attach net (n 0) (fun ~src:_ _ -> ());
  Net.attach net (n 1) (fun ~src:_ _ -> ());
  Net.partition net [ [ n 0 ]; [ n 1 ] ];
  Net.send net ~src:(n 0) ~dst:(n 1) "x";
  Dsim.Engine.run eng;
  let dropped =
    List.filter
      (fun (kind, _, _, _, reason) ->
        kind = Obs.Recorder.k_drop
        && Obs.Recorder.drop_reason_name reason = "partitioned")
      (records r)
  in
  check int "partition drop recorded" 1 (List.length dropped)

(* Per-node tables are indexed by [id - base] over the span of attached
   ids, so the same traffic must behave identically wherever the ids sit
   and in whatever order they attach.  [early] nodes attach first; the
   [late] ones attach while delayed packets among nodes 4-7 are still in
   flight, and the plain sends that follow on those paths must queue
   behind them (FIFO read from rows a lower attach has just shifted).
   Then: unicast pairs on every path (the second of each pair takes the
   1 ns FIFO bump), batches, loss, a partition and heal, and node 3
   detaching itself mid-batch (its remaining messages become [No_port]
   drops) before re-attaching.  Everything observable is reported with
   ids shifted back to 0-7. *)
let id_span_run ~offset ~early ~late =
  let eng = Dsim.Engine.create ~seed:7L () in
  let net =
    Net.create eng
      { Net.latency = Netsim.Latency.Constant (Span.of_us 10); loss = 0. }
  in
  let r = recorded eng in
  let id i = n (offset + i) in
  let log = ref [] in
  let rec attach i = Net.attach net (id i) (handler i)
  and handler i ~src msg =
    log :=
      (i, Nid.to_int src - offset, msg, Time.to_ns (Dsim.Engine.now eng))
      :: !log;
    if i = 3 && msg = -1 then Net.detach net (id 3)
  in
  let unicast s d m = Net.send net ~src:(id s) ~dst:(id d) m in
  let among_4_7 f =
    for s = 4 to 7 do
      for d = 4 to 7 do
        if s <> d then f s d
      done
    done
  in
  List.iter attach early;
  among_4_7 (fun s d ->
      ignore
        (Net.send_tracked_after net ~delay:(Span.of_us 50) ~src:(id s)
           ~dst:(id d) ((10 * s) + d)
          : bool));
  Dsim.Engine.schedule eng (Span.of_us 1) (fun () ->
      List.iter attach late;
      among_4_7 (fun s d -> unicast s d (100 + (10 * s) + d)));
  Dsim.Engine.run eng;
  Net.set_loss net 0.1;
  for round = 0 to 3 do
    for s = 0 to 7 do
      let d = (s + round + 1) mod 8 in
      unicast s d (1000 + (100 * s));
      unicast s d (1001 + (100 * s))
    done;
    Net.broadcast_many net ~src:(id round) [| 10; 11; 12; 13; 14 |] ~n:5
  done;
  Dsim.Engine.run eng;
  Net.partition net [ List.map id [ 0; 1; 2; 3 ]; List.map id [ 4; 5; 6; 7 ] ];
  Net.broadcast net ~src:(id 1) 20;
  Net.broadcast_many net ~src:(id 5) [| 21; 22; 23 |] ~n:3;
  unicast 2 6 24;
  unicast 6 7 25;
  Dsim.Engine.run eng;
  Net.heal net;
  Net.set_loss net 0.;
  Net.broadcast_many net ~src:(id 0) [| 30; -1; 31; 32 |] ~n:4;
  Dsim.Engine.run eng;
  attach 3;
  Net.broadcast net ~src:(id 4) 40;
  unicast 3 4 41;
  Dsim.Engine.run eng;
  let shift a = if a < 0 then a else a - offset in
  ( List.rev !log,
    List.init 8 (fun i ->
        (Net.stats net ~sent:true (id i), Net.stats net ~sent:false (id i))),
    Net.packets_dropped net,
    List.map
      (fun (kind, ts, node, a, b) -> (kind, ts, node - offset, shift a, b))
      (records r) )

let test_id_span_tables () =
  let all = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  let log, stats, dropped, recs = id_span_run ~offset:0 ~early:all ~late:[] in
  (* the reference run exercises what the comparison is about *)
  check bool "traffic delivered" true (List.length log > 100);
  check bool "plain sends queued behind the delayed ones" true
    (List.for_all
       (fun (_, _, msg, at) -> msg < 100 || msg >= 200 || at > 60_000)
       log);
  check bool "every node sent" true (List.for_all (fun (s, _) -> s > 0) stats);
  check bool "drops happened" true (dropped > 0);
  check
    (Alcotest.list int)
    "mid-batch No_port drops at batch positions 2 and 3" [ 2; 3 ]
    (List.filter_map
       (fun (kind, _, node, _, b) ->
         if
           kind = Obs.Recorder.k_drop && node = 3
           && Obs.Recorder.drop_reason_name b = "no-port"
         then Some ((b lsr 2) - 1)
         else None)
       recs);
  List.iter
    (fun (what, offset, early, late) ->
      let log', stats', dropped', recs' = id_span_run ~offset ~early ~late in
      check bool (what ^ ": deliveries (FIFO order, instants)") true
        (log' = log);
      check bool (what ^ ": stats") true (stats' = stats);
      check int (what ^ ": packets dropped") dropped dropped';
      check bool (what ^ ": stream records") true (recs' = recs))
    [
      ("ids 1000-1007", 1000, all, []);
      ("ids 1000-1007 attached downwards", 1000, [ 7; 6; 5; 4 ], [ 3; 2; 1; 0 ]);
      ("ids 0-7 attached downwards", 0, [ 7; 6; 5; 4 ], [ 3; 2; 1; 0 ]);
      ("ids 1000-1007 attached out of order", 1000, [ 6; 4; 7; 5 ], [ 2; 0; 3; 1 ]);
    ]

let suites =
  [
    ( "netsim",
      [
        Alcotest.test_case "unicast" `Quick test_unicast_delivery;
        Alcotest.test_case "broadcast" `Quick test_broadcast_excludes_sender;
        Alcotest.test_case "loopback" `Quick test_loopback_unicast_allowed;
        Alcotest.test_case "broadcast_many order" `Quick
          test_broadcast_many_order_and_count;
        Alcotest.test_case "broadcast_many = broadcasts" `Quick
          test_broadcast_many_matches_broadcasts;
        Alcotest.test_case "broadcast_many partition" `Quick
          test_broadcast_many_respects_partition;
        Alcotest.test_case "broadcast_many loss" `Quick
          test_broadcast_many_loss_per_message;
        Alcotest.test_case "detach" `Quick test_detach_drops_in_flight;
        Alcotest.test_case "partition" `Quick
          test_partition_blocks_cross_traffic;
        Alcotest.test_case "loss" `Quick test_loss_drops_packets;
        Alcotest.test_case "stats" `Quick test_stats_counters;
        Alcotest.test_case "double attach" `Quick test_double_attach_rejected;
        Alcotest.test_case "attach/detach/attach keeps order" `Quick
          test_attach_detach_attach_sorted;
        Alcotest.test_case "partition mask survives churn" `Quick
          test_partition_mask_after_churn;
        Alcotest.test_case "partition group limit" `Quick
          test_partition_group_limit;
        Alcotest.test_case "send_tracked outcomes" `Quick
          test_send_tracked_outcomes;
        Alcotest.test_case "send_tracked_after delay" `Quick
          test_send_tracked_after_delay;
        Alcotest.test_case "latency positive" `Quick
          test_latency_models_positive;
        Alcotest.test_case "calibrated peak" `Quick
          test_calibrated_peak_near_wire;
        Alcotest.test_case "compiled latency draws like sample" `Quick
          test_compiled_latency_draws_like_sample;
        Alcotest.test_case "tables span the attached ids" `Quick
          test_id_span_tables;
        QCheck_alcotest.to_alcotest prop_broadcast_reaches_all_connected;
      ] );
    ( "netsim.trace",
      [
        Alcotest.test_case "records events" `Quick test_trace_records_events;
        Alcotest.test_case "records drops" `Quick test_trace_records_drops;
      ] );
  ]
