(* The hierarchical multi-ring service: topology math, deterministic
   gateway election, cross-shard convergence in both bridge modes,
   gateway failover and bridge partition/heal. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id
module CH = Scenario.Cluster_hier

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Topology                                                            *)

let test_topology_math () =
  let topo = Hier.Topology.create ~shards:4 ~shard_size:3 in
  check int "replicas" 12 (Hier.Topology.replicas topo);
  check int "shard of node 7" 2 (Hier.Topology.shard_of topo (Nid.of_int 7));
  check int "rank of node 7" 1 (Hier.Topology.rank_of topo (Nid.of_int 7));
  check int "node (3,2)" 11
    (Nid.to_int (Hier.Topology.node topo ~shard:3 ~rank:2));
  check
    (Alcotest.list int)
    "members of shard 1" [ 3; 4; 5 ]
    (List.map Nid.to_int (Hier.Topology.shard_members topo 1));
  check int "ring distance wraps" 1 (Hier.Topology.ring_distance topo 0 3);
  check int "ring distance direct" 2 (Hier.Topology.ring_distance topo 0 2);
  Alcotest.check_raises "node outside layout"
    (Invalid_argument "Hier.Topology.shard_of: node outside the layout")
    (fun () -> ignore (Hier.Topology.shard_of topo (Nid.of_int 12)))

(* ------------------------------------------------------------------ *)
(* Deterministic election (satellite: Dsim.Det.elect)                  *)

let prop_elect_order_independent =
  QCheck.Test.make ~count:200
    ~name:"det: elect is independent of arrival order and table layout"
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 1_000_000))
    (fun ids ->
      let reference = List.fold_left min (List.hd ids) ids in
      (* arrival order: as generated, reversed, sorted descending *)
      let perms =
        [ ids; List.rev ids; List.sort (fun a b -> compare b a) ids ]
      in
      let all_orders_agree =
        List.for_all
          (fun p -> Dsim.Det.elect ~compare:Int.compare p = Some reference)
          perms
      in
      (* Hashtbl layout: feed the ids through a randomized hash table and
         elect over whatever order [fold] yields — the winner must not
         depend on bucket layout or the process's hash seed. *)
      let tbl = Hashtbl.create ~random:true 16 in
      List.iter (fun i -> Hashtbl.replace tbl i ()) ids;
      let hashed_order =
        (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
        [@ctslint.allow
          "hash-order"
            "the property deliberately feeds bucket order to [elect] to \
             prove the winner does not depend on it"]
      in
      all_orders_agree
      && Dsim.Det.elect ~compare:Int.compare hashed_order = Some reference)

let test_elect_empty () =
  check bool "empty view elects nobody" true
    (Dsim.Det.elect ~compare:Int.compare [] = None)

(* ------------------------------------------------------------------ *)
(* Hierarchical cluster fixtures                                       *)

(* Shard s's clocks start s * 5 ms behind real time: a visible initial
   cross-shard spread the bridge has to close. *)
let skewed_clock topo i =
  let shard = Hier.Topology.shard_of topo (Nid.of_int i) in
  {
    Clock.Hwclock.default_config with
    offset = Span.of_ms (-5 * shard);
  }

let make ?(seed = 11L) ?(shards = 3) ?(shard_size = 3) ?gateway_config () =
  let topo = Hier.Topology.create ~shards ~shard_size in
  CH.create ~seed ?gateway_config
    ~clock_config:(skewed_clock topo)
    ~shards ~shard_size ()

let settle = Span.of_ms 120

let test_star_convergence () =
  let t = make () in
  CH.start_all t;
  let initial = CH.cross_shard_skew t in
  check bool "initial spread is the injected 10 ms" true
    (Span.to_us initial > 9_000);
  CH.start_readers t;
  CH.run_for t settle;
  let skew = CH.cross_shard_skew t in
  check bool
    (Printf.sprintf "converged (skew %d us)" (Span.to_us skew))
    true
    (Span.to_us skew < 5_000);
  check bool "bridge rounds were agreed" true (CH.agreed_rounds t > 10);
  check bool "no global-clock regression" true (CH.regressions t = 0);
  (* the Gradient TRIX neighbour metric is bounded by the global spread *)
  check bool "neighbor skew <= cross-shard skew" true
    (Span.compare (CH.neighbor_skew t) skew <= 0)

let test_ring_mode_convergence () =
  let t =
    make ~seed:12L
      ~gateway_config:
        { Hier.Gateway.default_config with Hier.Gateway.mode = Hier.Gateway.Ring }
      ()
  in
  CH.start_all t;
  CH.start_readers t;
  CH.run_for t settle;
  let skew = CH.cross_shard_skew t in
  check bool
    (Printf.sprintf "ring mode converged (skew %d us)" (Span.to_us skew))
    true
    (Span.to_us skew < 5_000);
  check bool "ring mode agreed rounds" true (CH.agreed_rounds t > 10)

let test_deterministic_runs () =
  let run () =
    let t = make ~seed:21L () in
    CH.start_all t;
    CH.start_readers t;
    CH.run_for t settle;
    (Span.to_us (CH.cross_shard_skew t), CH.agreed_rounds t)
  in
  let a = run () and b = run () in
  check bool "same seed, same skew and rounds" true (a = b)

let test_gateway_crash_reelection () =
  let t = make ~seed:13L () in
  CH.start_all t;
  CH.start_readers t;
  CH.run_for t (Span.of_ms 40);
  (* shard 1's gateway must be its lowest id (node 3) *)
  check (Alcotest.option int) "initial gateway is min id" (Some 3)
    (Option.map Nid.to_int (CH.gateway_of t 1));
  let crashed = CH.crash_gateway t 1 in
  check (Alcotest.option int) "crashed the gateway" (Some 3)
    (Option.map Nid.to_int crashed);
  CH.run_for t settle;
  (* every surviving replica of shard 1 agrees on the next-lowest id *)
  check (Alcotest.option int) "re-elected deterministically" (Some 4)
    (Option.map Nid.to_int (CH.gateway_of t 1));
  check bool "no global-clock regression across failover" true
    (CH.regressions t = 0);
  let skew = CH.cross_shard_skew t in
  check bool
    (Printf.sprintf "still converged after failover (skew %d us)"
       (Span.to_us skew))
    true
    (Span.to_us skew < 5_000)

(* Partition an entire shard away at the bridge, let it lag, heal, and
   require re-convergence within a bounded number of gateway rounds
   (extends the examples/partition.ml idiom to the second tier). *)
let test_bridge_partition_heal () =
  let topo = Hier.Topology.create ~shards:3 ~shard_size:3 in
  (* shard 0 additionally runs slow crystals, so while isolated it drifts
     visibly behind the global clock *)
  let clock_config i =
    let base = skewed_clock topo i in
    if Hier.Topology.shard_of topo (Nid.of_int i) = 0 then
      { base with Clock.Hwclock.drift_ppm = -8000. }
    else base
  in
  let t =
    CH.create ~seed:14L ~clock_config ~shards:3 ~shard_size:3 ()
  in
  CH.start_all t;
  CH.start_readers t;
  CH.run_for t settle;
  check bool "converged before the partition" true
    (Span.to_us (CH.cross_shard_skew t) < 5_000);
  CH.isolate_shard t 0;
  (* Shard 0 starts ahead of the residual spread, so it must first drift
     down through it before it visibly lags: at -8000 ppm, 1.5 s of
     isolation puts it ~12 ms behind where the global clock went. *)
  CH.run_for t (Span.of_ms 1500);
  let skew_partitioned = CH.cross_shard_skew t in
  check bool
    (Printf.sprintf "isolated shard lags (skew %d us)"
       (Span.to_us skew_partitioned))
    true
    (Span.to_us skew_partitioned > 5_000);
  let rounds_before = CH.agreed_rounds t in
  CH.heal_bridge t;
  (* bounded: re-convergence within 40 gateway rounds of the heal *)
  let max_rounds = 40 in
  let deadline () = CH.agreed_rounds t - rounds_before > max_rounds in
  let rec wait () =
    if CH.converged t ~bound:(Span.of_ms 5) then ()
    else if deadline () then
      Alcotest.failf "not re-converged within %d gateway rounds (skew %d us)"
        max_rounds
        (Span.to_us (CH.cross_shard_skew t))
    else begin
      CH.run_for t (Span.of_ms 5);
      wait ()
    end
  in
  wait ();
  check bool "no regression through partition and heal" true
    (CH.regressions t = 0)

(* A gateway that opened a round of its own while it thought shard 0
   dead must drop that round when shard 0 polls it.  Shard 0's round is
   newer and max-combined from the answer to that Poll; closing the older
   round afterwards, at a value read later and so higher, would make
   shard 0's Agree arrive as a newer round with a lower value — a clamped
   global-clock regression.  The test plays shard 0's gateway from a
   stand-in node so the Poll lands inside shard 1's open round. *)
let test_lower_poll_abandons_open_round () =
  let shards = 2 and shard_size = 2 in
  let topo = Hier.Topology.create ~shards ~shard_size in
  let t =
    CH.create ~seed:16L ~clock_config:(skewed_clock topo)
      ~bridge_latency:(Netsim.Latency.Constant (Span.of_us 100))
      ~shards ~shard_size ()
  in
  CH.start_all t;
  CH.start_readers t;
  CH.run_for t (Span.of_ms 20);
  let stand_in = Nid.of_int (shards * shard_size) in
  Netsim.Network.partition t.CH.bridge
    [
      Hier.Topology.shard_members topo 0;
      stand_in :: Hier.Topology.shard_members topo 1;
    ];
  (* past the liveness timeout: shard 1 now coordinates its own rounds *)
  CH.run_for t (Span.of_ms 10);
  let id = Option.get (CH.gateway_of t 1) in
  let gw = t.CH.replicas.(Nid.to_int id).CH.gateway in
  let g = Hier.Gateway.global gw in
  let coordinated () = (Hier.Gateway.stats gw).Hier.Gateway.coordinated in
  let opened = coordinated () in
  CH.run_until t (fun () -> coordinated () > opened);
  (* shard 0's round: newer than anything shard 1 has seen, agreed at
     what shard 1 answers the Poll with *)
  let round = Hier.Global_clock.round g + 100 in
  let answer =
    Time.max (Option.get (Hier.Global_clock.value g)) (CH.estimate t id)
  in
  let from_shard_0 msg =
    Netsim.Network.send t.CH.bridge ~src:stand_in ~dst:id msg
  in
  from_shard_0 (Hier.Bridge_msg.Poll { round; coord_shard = 0 });
  (* past shard 1's offer timeout *)
  CH.run_for t (Span.of_ms 1);
  from_shard_0
    (Hier.Bridge_msg.Agree { round; coord_shard = 0; time = answer });
  CH.run_for t (Span.of_ms 1);
  check int "shard 0's agreement applied" round (Hier.Global_clock.round g);
  check int "no global-clock regression" 0 (Hier.Global_clock.regressions g)

let test_mid_scale_smoke () =
  (* 8 shards x 8 replicas: the shape CI smokes at 64 replicas. *)
  let topo = Hier.Topology.create ~shards:8 ~shard_size:8 in
  let t =
    CH.create ~seed:15L
      ~clock_config:(fun i ->
        {
          Clock.Hwclock.default_config with
          offset = Span.of_ms (-2 * Hier.Topology.shard_of topo (Nid.of_int i));
        })
      ~shards:8 ~shard_size:8 ()
  in
  CH.start_all t;
  CH.start_readers t;
  CH.run_for t (Span.of_ms 150);
  let skew = CH.cross_shard_skew t in
  check bool
    (Printf.sprintf "64-replica skew within bound (%d us)" (Span.to_us skew))
    true
    (Span.to_us skew < 6_000);
  check bool "ccs rounds completed across the fleet" true
    (CH.ccs_rounds_completed t > 8 * 8 * 20)

(* Random-walk exploration of the hier world with gateway crashes: every
   check property (the shards' §3 properties, cross-shard skew,
   deterministic re-election, no global-clock regression) must hold on
   every explored schedule, and the report must not depend on the number
   of worker domains. *)
module Hier_explore = Mc.Explore.Make (Mc.Hier_harness)

let walks = Mc.Hier_harness.default

let report_key (r : Mc.Explore.report) =
  ( r.Mc.Explore.schedules,
    r.Mc.Explore.distinct,
    r.Mc.Explore.steps_total,
    List.map (fun v -> v.Mc.Explore.invariant) r.Mc.Explore.violations )

(* The crash records of the random strategy's first [n] runs; each
   run's stream also holds every shard's first election, since the hier
   world forms its shards inside the checked run. *)
let crashes_in n =
  let delay_prob, reorder_prob =
    match Mc.Strategy.default_random with
    | Mc.Strategy.Random { delay_prob; reorder_prob } ->
        (delay_prob, reorder_prob)
    | Mc.Strategy.Bounded _ -> assert false
  in
  List.init n (fun i ->
      let seed, spec =
        Mc.Strategy.random_run ~base_seed:walks.Mc.Hier_harness.seed
          ~quantum:(Span.of_us 200) ~delay_prob ~reorder_prob i
      in
      let recorder = Obs.Recorder.create ~capacity:(1 lsl 18) () in
      let sink = Obs.Sink.create () in
      Obs.Sink.set_recorder sink (Some recorder);
      ignore
        (Mc.Hier_harness.run ~spec
           (Mc.Hier_harness.prepare ~sink ~seed ~packets:false walks)
          : _ * _);
      check int "recorder held the whole run" 0 (Obs.Recorder.dropped recorder);
      let crashes = ref 0 and elections = ref 0 in
      Obs.Recorder.iter recorder (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
          if kind = Obs.Recorder.k_crash then incr crashes;
          if kind = Obs.Recorder.k_hier_elect then incr elections);
      check bool "formation elections in the stream" true
        (!elections >= 3 + !crashes);
      !crashes)
  |> List.fold_left ( + ) 0

let test_random_walks () =
  let report = Hier_explore.explore ~budget:4 ~jobs:1 walks in
  check int "walks explored" 4 report.Mc.Explore.schedules;
  (match report.Mc.Explore.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "%d violation(s), first: %a"
        (List.length report.Mc.Explore.violations)
        Mc.Explore.pp_violation v);
  check bool "crashes were actually injected" true (crashes_in 4 > 0);
  check bool "same report at jobs=2" true
    (report_key report
    = report_key (Hier_explore.explore ~budget:4 ~jobs:2 walks));
  match Mc.Hier_harness.reuse (Mc.Hier_harness.reusable walks) with
  | Ok () -> Alcotest.fail "the hier world claims diff reuse"
  | Error why -> check bool "fresh, with a reason" true (why <> "")

(* A violating hier run goes through the same shrinker and black box as
   the CTS world.  The walks reach a real violation: the 8th schedule
   hands a shard to a follower whose group clock lags its gateway's (a
   failover defect listed in CHANGES.md and ROADMAP item 8), and the lag
   shows under the default schedule too, so the walk's deviations shrink
   away entirely.  Once failover is mended, this test needs another
   violating run. *)
let test_hier_violation_shrunk () =
  let report = Hier_explore.explore ~budget:8 walks in
  match report.Mc.Explore.violations with
  | [ v ] ->
      check int "found on the 8th schedule" 8 report.Mc.Explore.schedules;
      check Alcotest.string "property" "cross-shard-skew"
        v.Mc.Explore.invariant;
      check bool "walk deviated" true (v.Mc.Explore.original_deviations > 0);
      check bool "shrunk to the default schedule" true
        (v.Mc.Explore.counterexample = []);
      check bool "black box attached" true
        (Lint_fixture.contains ~sub:"cross-shard-skew" v.Mc.Explore.blackbox)
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

(* [deterministic-election] needs every shard's first election in the
   stream, so the hier world checks its formation.  On a stream checked
   from creation, a shard whose gateway crashed and that has not yet
   re-elected trips the property (the crashed node is still the last
   gateway elected), and the same run is quiet once the failover is
   over. *)
let test_election_checked_from_formation () =
  let run ~after_crash =
    let topo = Hier.Topology.create ~shards:3 ~shard_size:3 in
    let c =
      Obs.Check.create
        ~config:
          { Obs.Check.default_config with rings = Hier.Topology.rings topo }
        ()
    in
    let sink = Obs.Sink.create () in
    Obs.Sink.set_check sink (Some c);
    let t = CH.create ~seed:1L ~obs:sink ~shards:3 ~shard_size:3 () in
    CH.start_all t;
    CH.run_for t (Span.of_ms 20);
    check bool "shard 0 had a gateway" true (CH.crash_gateway t 0 <> None);
    CH.run_for t after_crash;
    Obs.Check.finish c;
    List.map (fun v -> v.Obs.Check.inv) (Obs.Check.verdicts c)
  in
  check Alcotest.(list string) "crashed gateway, no re-election yet"
    [ "deterministic-election" ]
    (run ~after_crash:(Span.of_us 1));
  check Alcotest.(list string) "re-elected after the failover" []
    (run ~after_crash:(Span.of_ms 100))

(* The scaling sweep's correctness bound, as a test: on seed 11, each
   of 2x2, 4x4, 8x8 and 16x16 (shard s's clocks 1 ms per shard index
   behind) forms, runs its readers for five 100 ms windows, and is then
   judged by the check with the shards as its rings: cross-shard skew
   under 5 000 us and no global-clock regression, with every other
   property on too. *)
let test_scaling_bound () =
  List.iter
    (fun (shards, shard_size) ->
      let topo = Hier.Topology.create ~shards ~shard_size in
      let check_ =
        Obs.Check.create
          ~config:
            {
              Obs.Check.default_config with
              rings = Hier.Topology.rings topo;
            }
          ()
      in
      let sink = Obs.Sink.create () in
      Obs.Sink.set_check sink (Some check_);
      let clock_config i =
        {
          Clock.Hwclock.default_config with
          offset = Span.of_ms (-1 * Hier.Topology.shard_of topo (Nid.of_int i));
        }
      in
      let t =
        CH.create ~seed:11L ~clock_config ~obs:sink ~shards ~shard_size ()
      in
      CH.start_all t;
      CH.start_readers t;
      for _ = 1 to 5 do
        CH.run_for t (Span.of_ms 100)
      done;
      Obs.Check.finish check_;
      match Obs.Check.verdicts check_ with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%d replicas: %a" (shards * shard_size)
            Obs.Check.pp_verdict v)
    [ (2, 2); (4, 4); (8, 8); (16, 16) ]

(* ------------------------------------------------------------------ *)
(* Golden-seed fingerprint (satellite: determinism pin)                *)

(* The exact observable trajectory of a 4x4 cluster on seed 11, pinned
   value-for-value: formation time, then (cross-shard skew, agreed
   rounds, regressions, CCS rounds) after each of 25 2ms slices, then
   each shard gateway's final global round/value.  Any change to the
   event schedule — an extra packet, a reordered timer, a different RNG
   draw — shifts this table, so a diff here is a loud, reviewable signal
   that a change altered behaviour rather than just performance.  When a
   change intentionally alters the schedule (as perf work on the send
   paths does), re-capture the table and justify the diff in the PR. *)
let golden_slices =
  (* (skew_us, agreed_rounds, regressions, ccs_rounds_completed) *)
  [|
    (3000, 0, 0, 16);
    (3000, 4, 0, 32);
    (1769, 8, 0, 51);
    (1562, 12, 0, 70);
    (1562, 16, 0, 89);
    (1562, 20, 0, 108);
    (1562, 24, 0, 127);
    (1562, 28, 0, 146);
    (1562, 32, 0, 165);
    (1562, 36, 0, 184);
    (1562, 40, 0, 203);
    (1562, 44, 0, 222);
    (1562, 48, 0, 241);
    (1562, 52, 0, 260);
    (1562, 56, 0, 279);
    (1562, 59, 0, 298);
    (1562, 64, 0, 316);
    (1562, 68, 0, 335);
    (1562, 72, 0, 354);
    (1562, 76, 0, 373);
    (1562, 79, 0, 392);
    (1562, 84, 0, 410);
    (1562, 88, 0, 429);
    (1562, 92, 0, 448);
    (1562, 95, 0, 467);
  |]

(* (gateway id, global round, global value in ns) per shard *)
let golden_gateways =
  [| (0, 24, 50_438_000); (4, 24, 50_438_000); (8, 23, 48_438_000);
     (12, 24, 50_438_000) |]

let test_golden_seed_fingerprint () =
  let shards = 4 and shard_size = 4 in
  let topo = Hier.Topology.create ~shards ~shard_size in
  let clock_config i =
    {
      Clock.Hwclock.default_config with
      offset =
        Span.of_ms (-1 * Hier.Topology.shard_of topo (Nid.of_int i));
    }
  in
  let t = CH.create ~seed:11L ~clock_config ~shards ~shard_size () in
  CH.start_all t;
  check int "formation time (us)" 1785 (Time.to_us (Dsim.Engine.now t.CH.eng));
  CH.start_readers t;
  Array.iteri
    (fun i (skew, agreed, regr, ccs) ->
      CH.run_for t (Span.of_ms 2);
      check int
        (Printf.sprintf "slice %d: skew (us)" i)
        skew
        (Span.to_us (CH.cross_shard_skew t));
      check int (Printf.sprintf "slice %d: agreed rounds" i) agreed
        (CH.agreed_rounds t);
      check int (Printf.sprintf "slice %d: regressions" i) regr
        (CH.regressions t);
      check int (Printf.sprintf "slice %d: ccs rounds" i) ccs
        (CH.ccs_rounds_completed t))
    golden_slices;
  Array.iteri
    (fun s (gw, round, value_ns) ->
      match CH.gateway_of t s with
      | None -> Alcotest.failf "shard %d: no gateway" s
      | Some id ->
          check int (Printf.sprintf "shard %d: gateway" s) gw (Nid.to_int id);
          let g =
            Hier.Gateway.global t.CH.replicas.(Nid.to_int id).CH.gateway
          in
          check int
            (Printf.sprintf "shard %d: global round" s)
            round
            (Hier.Global_clock.round g);
          check int
            (Printf.sprintf "shard %d: global value (ns)" s)
            value_ns
            (match Hier.Global_clock.value g with
            | Some v -> Time.to_ns v
            | None -> -1))
    golden_gateways

(* ------------------------------------------------------------------ *)
(* Join-storm guard                                                    *)

(* Formation cost pinned by counts that repeat exactly per seed, so the
   guard never depends on wall time.  When every join that grew a node's
   sets was rebroadcast at once, this 16x16 formation peaked at 59 257
   queued events and handled 61 440 join receipts; coalescing the
   rebroadcasts into the retransmit tick brings them to 20 429 and
   11 520.  The world's reachable size is an exact count too. *)
let test_formation_join_storm_bounded () =
  let sink = Obs.Sink.create () in
  let attrib = Obs.Attrib.create () in
  Obs.Sink.set_attrib sink (Some attrib);
  let t = CH.create ~seed:1L ~obs:sink ~shards:16 ~shard_size:16 () in
  CH.start_all t;
  let join_receipts =
    List.fold_left
      (fun acc (r : Obs.Attrib.row) ->
        if r.Obs.Attrib.probe = "m-join" then acc + r.Obs.Attrib.calls else acc)
      0 (Obs.Attrib.report attrib)
  in
  let hwm = CH.queue_hwm t in
  check bool (Printf.sprintf "event-queue high water %d <= 30000" hwm) true
    (hwm <= 30_000);
  check bool
    (Printf.sprintf "join receipts %d <= 20000" join_receipts)
    true
    (join_receipts <= 20_000);
  (* The built world holds live state only: the event queue is trimmed
     after formation, netsim cells are not pooled, and per-node tables
     span each network's own ids.  616 345 reachable words before those
     three changes, 254 402 after. *)
  let words = Obj.reachable_words (Obj.repr t) in
  check bool
    (Printf.sprintf "world %d words <= 320000" words)
    true (words <= 320_000)

(* The per-receipt cost of membership messages, pinned by counts that
   repeat exactly per seed.  With balanced-tree candidate sets, a
   polymorphic join table and a member-list rebuild per recovery done,
   this formation allocated 6 843 446 minor words; bitset sets, an
   int-keyed table and a countdown of awaited dones bring it to about
   1.8 M.  The simulated formation must not move at all: same event
   count, same instant. *)
let test_formation_alloc_bounded () =
  let t = CH.create ~seed:1L ~shards:16 ~shard_size:16 () in
  let w0 = Gc.minor_words () in
  CH.start_all t;
  let words = Gc.minor_words () -. w0 in
  check bool
    (Printf.sprintf "formation minor words %.0f <= 3.4 M" words)
    true (words <= 3.4e6);
  check int "formation events" 40_677 (Dsim.Engine.steps t.CH.eng);
  check int "formation instant (ns)" 5_056_396
    (Time.to_ns (Dsim.Engine.now t.CH.eng))

let suites =
  [
    ( "hier",
      [
        Alcotest.test_case "topology math" `Quick test_topology_math;
        QCheck_alcotest.to_alcotest prop_elect_order_independent;
        Alcotest.test_case "elect empty" `Quick test_elect_empty;
        Alcotest.test_case "star convergence" `Slow test_star_convergence;
        Alcotest.test_case "ring convergence" `Slow test_ring_mode_convergence;
        Alcotest.test_case "deterministic runs" `Slow test_deterministic_runs;
        Alcotest.test_case "gateway crash re-election" `Slow
          test_gateway_crash_reelection;
        Alcotest.test_case "bridge partition heal" `Slow
          test_bridge_partition_heal;
        Alcotest.test_case "lower shard's poll abandons an open round" `Quick
          test_lower_poll_abandons_open_round;
        Alcotest.test_case "64-replica smoke" `Slow test_mid_scale_smoke;
        Alcotest.test_case "random walks with gateway crashes" `Slow
          test_random_walks;
        Alcotest.test_case "violation shrunk with its black box" `Slow
          test_hier_violation_shrunk;
        Alcotest.test_case "election checked from formation" `Quick
          test_election_checked_from_formation;
        Alcotest.test_case "scaling bound: skew and regressions (seed 11)"
          `Slow test_scaling_bound;
        Alcotest.test_case "golden-seed fingerprint (4x4, seed 11)" `Slow
          test_golden_seed_fingerprint;
        Alcotest.test_case "formation join storm bounded (16x16, seed 1)"
          `Slow test_formation_join_storm_bounded;
        Alcotest.test_case "formation allocation bounded (16x16, seed 1)"
          `Slow test_formation_alloc_bounded;
      ] );
  ]
