(* Tests for lib/mc — the schedule-exploration model checker: choice-point
   hooks, deterministic replay, invariant checking, strategies, and the
   counterexample shrinker (including end-to-end detection of a seeded
   reordering bug). *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Eq = Dsim.Event_queue
module Engine = Dsim.Engine

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Event queue choice points *)

let test_ready_count () =
  let q = Eq.create () in
  check int "empty" 0 (Eq.ready_count q);
  Eq.push q (Time.of_us 5) () "a";
  Eq.push q (Time.of_us 5) () "b";
  Eq.push q (Time.of_us 7) () "c";
  Eq.push q (Time.of_us 5) () "d";
  check int "three at earliest" 3 (Eq.ready_count q);
  ignore (Eq.pop q);
  check int "two left" 2 (Eq.ready_count q);
  ignore (Eq.pop q);
  ignore (Eq.pop q);
  check int "lone head" 1 (Eq.ready_count q)

let test_pop_nth () =
  let q = Eq.create () in
  Eq.push q (Time.of_us 5) () "a";
  Eq.push q (Time.of_us 5) () "b";
  Eq.push q (Time.of_us 5) () "c";
  Eq.push q (Time.of_us 9) () "z";
  (* take the middle of the ready set, then check the rest still pops in
     insertion order *)
  check Alcotest.(option string) "nth=1" (Some "b")
    (Option.map (fun (_, (), v) -> v) (Eq.pop_nth q 1));
  check Alcotest.(option string) "then a" (Some "a")
    (Option.map (fun (_, (), v) -> v) (Eq.pop q));
  check Alcotest.(option string) "then c" (Some "c")
    (Option.map (fun (_, (), v) -> v) (Eq.pop q));
  check Alcotest.(option string) "then z" (Some "z")
    (Option.map (fun (_, (), v) -> v) (Eq.pop q));
  check bool "drained" true (Eq.is_empty q)

let test_pop_nth_clamped () =
  let q = Eq.create () in
  Eq.push q (Time.of_us 1) () "a";
  Eq.push q (Time.of_us 1) () "b";
  Eq.push q (Time.of_us 2) () "later";
  (* n beyond the ready set clamps to its last member, never to "later" *)
  check Alcotest.(option string) "clamped to b" (Some "b")
    (Option.map (fun (_, (), v) -> v) (Eq.pop_nth q 99));
  check Alcotest.(option string) "head intact" (Some "a")
    (Option.map (fun (_, (), v) -> v) (Eq.pop q))

let test_pop_nth_heap_invariant () =
  (* removing from the middle of the heap must leave a well-formed heap:
     drain and verify global (time, insertion) order on what remains *)
  let q = Eq.create () in
  for i = 0 to 63 do
    Eq.push q (Time.of_us (i mod 8)) () i
  done;
  ignore (Eq.pop_nth q 3);
  ignore (Eq.pop_nth q 5);
  let last = ref Time.epoch in
  let n = ref 0 in
  let ok = ref true in
  let rec drain () =
    match Eq.pop q with
    | None -> ()
    | Some (at, (), _) ->
        if Time.(at < !last) then ok := false;
        last := at;
        incr n;
        drain ()
  in
  drain ();
  check bool "time order preserved" true !ok;
  check int "all remaining popped" 62 !n

(* ------------------------------------------------------------------ *)
(* Engine scheduler hook *)

let test_engine_scheduler_reorder () =
  let eng = Engine.create () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  Engine.schedule_at eng (Time.of_us 1) (log "a");
  Engine.schedule_at eng (Time.of_us 1) (log "b");
  Engine.schedule_at eng (Time.of_us 1) (log "c");
  (* reverse the tie: always take the last ready event *)
  Engine.set_scheduler eng (Some (fun ~ready -> Engine.Take (ready - 1)));
  Engine.run eng;
  Engine.set_scheduler eng None;
  check Alcotest.(list string) "reversed" [ "c"; "b"; "a" ]
    (List.rev !order)

let test_engine_scheduler_take0_is_default () =
  let run hook =
    let eng = Engine.create () in
    let order = ref [] in
    for i = 0 to 9 do
      Engine.schedule_at eng
        (Time.of_us (i mod 3))
        (fun () -> order := i :: !order)
    done;
    if hook then Engine.set_scheduler eng (Some (fun ~ready:_ -> Engine.Take 0));
    Engine.run eng;
    List.rev !order
  in
  check Alcotest.(list int) "Take 0 = default schedule" (run false) (run true)

(* ------------------------------------------------------------------ *)
(* Harness determinism *)

let cfg rounds = { Mc.Harness.default with Mc.Harness.rounds }

let test_harness_deterministic () =
  let _, i1 = Mc.Harness.run (cfg 8) in
  let _, i2 = Mc.Harness.run (cfg 8) in
  check int "same fingerprint" i1.Mc.Harness.fingerprint
    i2.Mc.Harness.fingerprint;
  check int "same steps" i1.Mc.Harness.steps i2.Mc.Harness.steps;
  let o, _ = Mc.Harness.run (cfg 8) in
  check int "all rounds observed" 8
    o.Mc.Invariant.stats.(0).Cts.Service.rounds_completed

(* [record_packets] works whether or not the caller's sink carries a
   recorder: the measurement lends itself one, gives it back, and the
   run is unperturbed. *)
let test_harness_packet_log_without_recorder () =
  let _, plain = Mc.Harness.run (cfg 4) in
  let bare = Obs.Sink.create () in
  List.iter
    (fun (what, sink) ->
      let o, i =
        Mc.Harness.run { (cfg 4) with Mc.Harness.record_packets = true; sink }
      in
      check bool (what ^ ": packet log rendered") true
        (o.Mc.Invariant.packet_log <> "");
      check int (what ^ ": same fingerprint") plain.Mc.Harness.fingerprint
        i.Mc.Harness.fingerprint)
    [ ("no sink", None); ("sink without recorder", Some bare) ];
  check bool "lent recorder returned" true (Option.is_none (Obs.Sink.recorder bare))

let test_harness_replay_deviations () =
  (* a run under a random walk, replayed from its applied trace, is
     bit-identical *)
  let spec =
    {
      Mc.Controller.forced = [];
      random =
        Some
          { Mc.Controller.seed = 7L; delay_prob = 0.05; reorder_prob = 0.5 };
      quantum = Span.of_us 200;
    }
  in
  let _, info = Mc.Harness.run ~spec (cfg 8) in
  check bool "walk deviated" true (info.Mc.Harness.deviations <> []);
  let replay = Mc.Controller.replay_spec info.Mc.Harness.deviations in
  let _, info' = Mc.Harness.run ~spec:replay (cfg 8) in
  check int "replay fingerprint" info.Mc.Harness.fingerprint
    info'.Mc.Harness.fingerprint

(* ------------------------------------------------------------------ *)
(* Harness reuse: snapshot-restored worlds must be trace-identical to
   fresh construction, run after run, for every configuration shape the
   explorer feeds them. *)

let spec_with_walk seed =
  {
    Mc.Controller.forced = [];
    random =
      Some { Mc.Controller.seed; delay_prob = 0.05; reorder_prob = 0.5 };
    quantum = Span.of_us 200;
  }

let check_reused_matches_fresh name r cfg spec =
  let o_fresh, i_fresh = Mc.Harness.run ~spec cfg in
  let o_reused, i_reused = Mc.Harness.run_reused r ~spec cfg in
  check int (name ^ ": fingerprint") i_fresh.Mc.Harness.fingerprint
    i_reused.Mc.Harness.fingerprint;
  check int (name ^ ": steps") i_fresh.Mc.Harness.steps
    i_reused.Mc.Harness.steps;
  check int (name ^ ": packets") i_fresh.Mc.Harness.packets
    i_reused.Mc.Harness.packets;
  check bool (name ^ ": deviations") true
    (i_fresh.Mc.Harness.deviations = i_reused.Mc.Harness.deviations);
  check bool (name ^ ": invariant results") true
    (Mc.Invariant.check_all o_fresh = Mc.Invariant.check_all o_reused)

let test_reuse_matches_fresh_across_seeds () =
  let r = Mc.Harness.reusable (cfg 8) in
  check bool "reset available" true (Mc.Harness.reset r (cfg 8));
  List.iter
    (fun seed ->
      let c = { (cfg 8) with Mc.Harness.seed } in
      check_reused_matches_fresh
        (Printf.sprintf "seed %Ld default spec" seed)
        r c Mc.Controller.default_spec;
      check_reused_matches_fresh
        (Printf.sprintf "seed %Ld random walk" seed)
        r c
        (spec_with_walk (Int64.add seed 13L)))
    [ 1L; 2L; 99L ]

let test_reuse_matches_fresh_across_variants () =
  let variants =
    [
      ("crash", { (cfg 8) with Mc.Harness.crash_at_round = Some 4 });
      ("seeded bug", { (cfg 8) with Mc.Harness.bug = Some Mc.Harness.Ignore_buffered_winner });
      ("straggler", { (cfg 8) with Mc.Harness.straggle_us = 400 });
      ("no jitter", { (cfg 8) with Mc.Harness.jitter_us = 0 });
    ]
  in
  let r = Mc.Harness.reusable (cfg 8) in
  List.iter
    (fun (name, c) ->
      check_reused_matches_fresh (name ^ " default spec") r c
        Mc.Controller.default_spec;
      check_reused_matches_fresh (name ^ " random walk") r c
        (spec_with_walk 7L))
    variants

let test_reuse_rebuilds_on_projection_change () =
  let r = Mc.Harness.reusable (cfg 8) in
  (* replicas is part of the startup projection: reset must rebuild and
     stay trace-identical to fresh construction. *)
  let c4 = { (cfg 8) with Mc.Harness.replicas = 4 } in
  check bool "reset after projection change" true (Mc.Harness.reset r c4);
  check_reused_matches_fresh "replicas=4" r c4 Mc.Controller.default_spec;
  let c3 = cfg 8 in
  check bool "reset back" true (Mc.Harness.reset r c3);
  check_reused_matches_fresh "back to replicas=3" r c3
    Mc.Controller.default_spec

(* ------------------------------------------------------------------ *)
(* Diff snapshot/restore (Mc.Snap + the harness's verified diff mode) *)

type snap_probe = {
  mutable count : int;
  mutable label : bytes;
  mutable weights : float array;
  cells : int ref array;
}

let test_snap_restore_unit () =
  let shared = ref 5 in
  let p =
    {
      count = 1;
      label = Bytes.of_string "pristine";
      weights = [| 1.0; 2.5 |];
      cells = [| shared; shared; ref 7 |];
    }
  in
  let bump () = incr shared in
  let snap = Mc.Snap.capture (p, bump) in
  check bool "capture recorded blocks" true (Mc.Snap.blocks snap > 0);
  (* dirty every kind of captured block, including state reachable only
     through the closure's environment *)
  p.count <- 42;
  Bytes.set p.label 0 'X';
  p.weights.(1) <- 9.0;
  p.weights <- [| 0.0 |];
  p.cells.(2) := 100;
  bump ();
  bump ();
  let dirty = Mc.Snap.restore snap in
  check bool "restore rewound something" true (dirty > 0);
  check int "int field" 1 p.count;
  check bool "bytes contents" true (Bytes.to_string p.label = "pristine");
  check bool "float array field identity" true
    (Array.length p.weights = 2 && p.weights.(1) = 2.5);
  check int "ref through array" 7 !(p.cells.(2));
  check int "ref through closure env" 5 !shared;
  check bool "aliasing preserved" true
    ((p.cells.(0) == p.cells.(1))
    [@ctslint.allow
      "phys-equality"
        "the property under test: restore must preserve sharing, which is \
         exactly physical identity"]);
  (* a second run of the same mutations restores identically *)
  p.count <- 43;
  ignore (Mc.Snap.restore snap : int);
  check int "idempotent re-restore" 1 p.count

let test_diff_mode_engaged () =
  (* The standard exploration world must pass the snapshot verification
     probe: if [Snap] silently stopped covering some state, reuse would
     fall back to fresh construction and this fails loudly instead of
     hiding a 10x slowdown behind identical results. *)
  let r = Mc.Harness.reusable (cfg 8) in
  check bool "diff mode verified" true (Mc.Harness.reuse_mode r = `Diff);
  (* restore = fresh, draw for draw: after many dirtying runs, a diff
     restore + reseed still replays fresh construction bit-for-bit (the
     fingerprint folds every observation of every replica, so a single
     divergent RNG draw or leaked event shows up here) *)
  List.iter
    (fun seed ->
      let c = { (cfg 8) with Mc.Harness.seed } in
      check_reused_matches_fresh
        (Printf.sprintf "diff seed %Ld" seed)
        r c
        (spec_with_walk (Int64.add seed 29L)))
    [ 3L; 17L; 3L ];
  check bool "still diff after reuse" true (Mc.Harness.reuse_mode r = `Diff)

let test_diff_survives_crash_runs () =
  (* A crash run tears a replica out of the group — the most invasive
     mutation a measurement makes.  The next restore must still equal
     fresh construction, and the no-draw split-order invariant must keep
     holding (reset returning true re-validates the projection). *)
  let r = Mc.Harness.reusable (cfg 8) in
  check bool "diff mode" true (Mc.Harness.reuse_mode r = `Diff);
  let crash = { (cfg 8) with Mc.Harness.crash_at_round = Some 3 } in
  check_reused_matches_fresh "crash run via diff" r crash
    Mc.Controller.default_spec;
  check_reused_matches_fresh "clean run after crash run" r (cfg 8)
    Mc.Controller.default_spec;
  check bool "reset still available" true (Mc.Harness.reset r (cfg 8))

let test_diff_mode_every_shape () =
  (* Fresh construction is the only fallback behind the diff restore, so
     a probe that stopped verifying would cost a whole world per
     schedule.  Every configuration shape the tests and the explorer
     build must verify. *)
  let shapes =
    [
      ("crash", { (cfg 8) with Mc.Harness.crash_at_round = Some 4 });
      ("unskewed clocks", { (cfg 8) with Mc.Harness.skew_clocks = false });
      ( "seeded bug",
        { (cfg 8) with Mc.Harness.bug = Some Mc.Harness.Ignore_buffered_winner } );
    ]
    @ List.map
        (fun n ->
          (Printf.sprintf "%d replicas" n, { (cfg 8) with Mc.Harness.replicas = n }))
        [ 2; 3; 4; 5 ]
    @ List.map
        (fun l ->
          ( Printf.sprintf "latency %d us" l,
            { (cfg 8) with Mc.Harness.latency_us = l } ))
        [ 20; 50 ]
  in
  List.iter
    (fun (name, c) ->
      check bool (name ^ ": diff mode") true
        (Mc.Harness.reuse_mode (Mc.Harness.reusable c) = `Diff))
    shapes

(* ------------------------------------------------------------------ *)
(* The §3 properties over hand-built record streams *)

module Rec = Obs.Recorder

(* One CCS round of two replicas reading the group clock on thread 1:
   replica 0 proposes and replica 1 suppresses, then each service
   samples the group clock (µs) and each application reads it (ns). *)
let round ?(propose = true) r v0 v1 =
  (if propose then [ (Rec.k_ccs_propose, 100 * r, 0, r, v0 * 1000) ] else [])
  @ [
      (Rec.k_ccs_suppress, 100 * r, 1, -1, 0);
      (Rec.k_gc_sample, (100 * r) + 10, 0, v0, 1);
      (Rec.k_read, (100 * r) + 10, 0, v0 * 1000, r);
      (Rec.k_gc_sample, (100 * r) + 20, 1, v1, 1);
      (Rec.k_read, (100 * r) + 20, 1, v1 * 1000, r);
    ]

let judge records =
  let c = Obs.Check.create () in
  List.iter
    (fun (kind, ts_us, node, a, b) -> Obs.Check.step c ~kind ~ts_us ~node ~a ~b)
    records;
  Obs.Check.finish c;
  Obs.Check.verdicts c

let names records = List.map (fun v -> v.Obs.Check.inv) (judge records)

let test_invariants_catch_violations () =
  let caught what stream =
    check bool (what ^ " caught") true (List.mem what (names stream))
  in
  check Alcotest.(list string) "healthy passes" []
    (names (round 1 100 100 @ round 2 200 200));
  (* the group clock runs backwards at both replicas *)
  caught "monotone" (round 1 200 200 @ round 2 100 100);
  (* the replicas disagree on round 2; the verdict names the read that
     disagreed (record 11: each round is six records, and the read of
     replica 1 is a round's last) *)
  (match judge (round 1 100 100 @ round 2 200 250) with
  | [ v ] ->
      check string "agreement caught" "agreement" v.Obs.Check.inv;
      check int "witness" 11 v.Obs.Check.at;
      check int "disagreeing reader" 1 v.Obs.Check.node;
      check int "difference, ns" 50_000 v.Obs.Check.worst
  | vs -> Alcotest.failf "expected 1 verdict, got %d" (List.length vs));
  (* a round with neither send nor suppress at replica 0 *)
  caught "single-synchronizer" (round 1 100 100 @ round ~propose:false 2 200 200);
  (* a second decision at replica 0 after its last read: caught, and
     excused once replica 0 crashed, since only survivors are counted *)
  let twice =
    round 1 100 100 @ round 2 200 200 @ [ (Rec.k_ccs_suppress, 250, 0, -1, 0) ]
  in
  caught "single-synchronizer" twice;
  check Alcotest.(list string) "crashed replica excused" []
    (names (twice @ [ (Rec.k_crash, 300, 0, 0, 0) ]));
  (* the service's clock rolls back on thread 1 of replica 0 while the
     reads stay healthy; a lower sample on another thread is no
     roll-back *)
  let rolled =
    round 1 100 100
    @ [ (Rec.k_gc_sample, 150, 0, 50, 2) ]
    @ round 2 200 200
  in
  check Alcotest.(list string) "threads are judged apart" [] (names rolled);
  caught "monotone" (rolled @ [ (Rec.k_gc_sample, 400, 0, 150, 1) ])

(* The hierarchy's properties over hand-built streams, judged with the
   ring partition of two shards of two: nodes 0 and 1 are shard 0,
   nodes 2 and 3 shard 1. *)
let two_shards = { Obs.Check.default_config with rings = [| 0; 0; 1; 1 |] }

(* Round [r] of shard [s], both replicas reading value [v] (µs) on
   thread 1: the lower proposes, the higher suppresses. *)
let shard_round s r v =
  let lo = 2 * s and hi = (2 * s) + 1 in
  [
    (Rec.k_ccs_propose, 100 * r, lo, r, v * 1000);
    (Rec.k_ccs_suppress, 100 * r, hi, -1, 0);
    (Rec.k_gc_sample, (100 * r) + 10, lo, v, 1);
    (Rec.k_read, (100 * r) + 10, lo, v * 1000, r);
    (Rec.k_gc_sample, (100 * r) + 20, hi, v, 1);
    (Rec.k_read, (100 * r) + 20, hi, v * 1000, r);
  ]

let elect ts node ~shard = (Rec.k_hier_elect, ts, node, shard, node)
let crash ts node = (Rec.k_crash, ts, node, 0, 0)

let test_hier_properties () =
  let names ?(config = two_shards) records =
    let c = Obs.Check.create ~config () in
    List.iter
      (fun (kind, ts_us, node, a, b) -> Obs.Check.step c ~kind ~ts_us ~node ~a ~b)
      records;
    Obs.Check.finish c;
    List.map (fun v -> v.Obs.Check.inv) (Obs.Check.verdicts c)
  in
  let caught what stream =
    check bool (what ^ " caught") true (List.mem what (names stream))
  in
  let quiet what stream = check Alcotest.(list string) what [] (names stream) in
  (* each shard reads its own round 1, with its own value: per-ring
     agreement stays quiet, one ring would not *)
  let healthy =
    [ elect 50 0 ~shard:0; elect 50 2 ~shard:1 ]
    @ shard_round 0 1 100 @ shard_round 1 1 300
  in
  quiet "per-shard rounds" healthy;
  check bool "one ring compares the shards' rounds" true
    (List.mem "agreement" (names ~config:Obs.Check.default_config healthy));
  (* the stream ends inside node 0's round 2: decided, not yet read *)
  quiet "an open round at the end"
    (healthy
    @ [ (Rec.k_ccs_open, 400, 0, 2, 1); (Rec.k_ccs_propose, 400, 0, 2, 0) ]);
  (* a gateway's global clock clamps a newer agreement *)
  caught "no-global-regression" (healthy @ [ (Rec.k_hier_clamp, 500, 0, 3, 250) ]);
  (* failover: the gateway crashes and the next member takes over *)
  quiet "re-election of the lowest live member"
    (healthy @ [ crash 400 0; elect 450 1 ~shard:0 ]);
  (* no re-election: the shard's last gateway is dead *)
  caught "deterministic-election" (healthy @ [ crash 400 0 ]);
  (* an election that skips the lowest live member *)
  caught "deterministic-election" (healthy @ [ elect 450 3 ~shard:1 ]);
  (* the shards' offsets (group clock - time) lie 4 ms, then 6 ms, apart *)
  quiet "shards 4 ms apart" (shard_round 0 1 100 @ shard_round 1 1 4110);
  caught "cross-shard-skew" (shard_round 0 1 100 @ shard_round 1 1 6110)

(* ------------------------------------------------------------------ *)
(* Shrinker on a synthetic predicate *)

let test_shrink_synthetic () =
  let d p = Mc.Schedule.Delay { packet = p } in
  (* failure needs deviations 2 and 5 together; everything else is noise *)
  let fails s =
    List.mem (d 2) s && List.mem (d 5) s
  in
  let sched = [ d 0; d 1; d 2; d 3; d 4; d 5; d 6; d 7 ] in
  let minimal, attempts = Mc.Shrink.minimize ~fails sched in
  check Alcotest.(list bool) "exactly the two culprits"
    [ true; true ]
    (List.map (fun x -> List.mem x minimal) [ d 2; d 5 ]);
  check int "nothing else" 2 (List.length minimal);
  check bool "bounded work" true (attempts < 100)

let test_shrink_prefix_only () =
  let d p = Mc.Schedule.Delay { packet = p } in
  (* only the first deviation matters: prefix search alone should cut it *)
  let fails s = List.mem (d 0) s in
  let minimal, _ = Mc.Shrink.minimize ~fails [ d 0; d 1; d 2; d 3 ] in
  check int "single deviation" 1 (List.length minimal)

(* ------------------------------------------------------------------ *)
(* Exploration: current code is clean under perturbation *)

let test_explore_random_clean () =
  let r =
    Mc.Explore.explore
      ~strategy:(Mc.Strategy.Random { delay_prob = 0.02; reorder_prob = 0.3 })
      ~budget:60 (cfg 8)
  in
  check int "all schedules ran" 60 r.Mc.Explore.schedules;
  check bool "distinct schedules" true (r.Mc.Explore.distinct > 50);
  check Alcotest.(list string) "no violations" []
    (List.map
       (fun v -> v.Mc.Explore.invariant)
       r.Mc.Explore.violations)

let test_explore_crash_clean () =
  let c = { (cfg 8) with Mc.Harness.crash_at_round = Some 4 } in
  let r = Mc.Explore.explore ~budget:40 c in
  check int "all schedules ran" 40 r.Mc.Explore.schedules;
  check bool "no violations" true (r.Mc.Explore.violations = [])

let test_explore_bounded_clean () =
  let r =
    Mc.Explore.explore ~strategy:(Mc.Strategy.Bounded { depth = 1 })
      ~budget:120 (cfg 6)
  in
  check bool "explored several schedules" true (r.Mc.Explore.schedules > 20);
  check bool "no violations" true (r.Mc.Explore.violations = [])

(* ------------------------------------------------------------------ *)
(* End to end: a seeded reordering bug is caught and shrunk *)

(* Replica 0 thinks fast (60 us) while the others straggle (140 us), so
   under the default schedule replica 0 always opens its rounds first and
   the Ignore_buffered_winner bug stays dormant.  A schedule that delays
   the right packet makes another replica's CCS message arrive before
   replica 0 opens — triggering the buggy suppression path. *)
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

let test_seeded_bug_dormant_by_default () =
  let o, info = Mc.Harness.run buggy in
  check Alcotest.(list string) "default schedule passes" []
    (List.map (fun v -> v.Obs.Check.inv) (Mc.Invariant.check_all o));
  check bool "no deviations applied" true (info.Mc.Harness.deviations = [])

let test_seeded_bug_found_and_shrunk () =
  let r =
    Mc.Explore.explore ~strategy:(Mc.Strategy.Bounded { depth = 1 })
      ~budget:300 buggy
  in
  match r.Mc.Explore.violations with
  | [] -> Alcotest.fail "bounded exploration missed the seeded bug"
  | v :: _ ->
      check bool "agreement or monotonicity broken" true
        (List.mem v.Mc.Explore.invariant [ "agreement"; "monotone" ]);
      let len = Mc.Schedule.length v.Mc.Explore.counterexample in
      check bool "counterexample nonempty" true (len > 0);
      check bool "counterexample minimal (<= 10 deviations)" true (len <= 10);
      (* the shrunk schedule must still reproduce the violation *)
      let o, _ =
        Mc.Harness.run
          ~spec:(Mc.Controller.replay_spec v.Mc.Explore.counterexample)
          buggy
      in
      check bool "replayable" true (Mc.Invariant.check_all o <> []);
      check bool "packet log rendered" true (v.Mc.Explore.packet_log <> "");
      (* the black box rides along: the minimal repro's flight window
         must parse back and actually contain records *)
      check bool "flight window attached" true (v.Mc.Explore.blackbox <> "");
      (match Obs.Postmortem.load_string v.Mc.Explore.blackbox with
      | Error e -> Alcotest.failf "blackbox does not parse: %s" e
      | Ok w -> (
          check bool "blackbox has records" true
            (Array.length w.Obs.Postmortem.records > 0);
          (* ... and names the violation that failed the run, with its
             witnessing record inside the window *)
          match w.Obs.Postmortem.verdicts with
          | [ verdict ] ->
              check string "black box verdict" "agreement"
                verdict.Obs.Check.inv;
              let first = w.Obs.Postmortem.w_dropped in
              check bool "witness inside the window" true
                (verdict.Obs.Check.at >= first
                && verdict.Obs.Check.at
                   < first + Array.length w.Obs.Postmortem.records)
          | vs ->
              Alcotest.failf "expected 1 verdict line, got %d" (List.length vs)))

let test_seeded_bug_random_walk_finds_it () =
  let r =
    Mc.Explore.explore
      ~strategy:(Mc.Strategy.Random { delay_prob = 0.08; reorder_prob = 0.3 })
      ~budget:400 buggy
  in
  check bool "random walk finds the bug too" true
    (r.Mc.Explore.violations <> [])

(* The black box is a function of the counterexample: fiber ids are
   per engine, so the dump is byte-identical across repeated explorations
   in one process and at any domain count, and a restored world numbers
   its fibers exactly like a freshly built one. *)
let test_blackbox_replays () =
  let c =
    {
      Mc.Harness.default with
      Mc.Harness.rounds = 8;
      bug = Some Mc.Harness.Ignore_buffered_winner;
    }
  in
  let blackbox jobs =
    let r =
      Mc.Explore.explore ~strategy:Mc.Strategy.default_random ~budget:200
        ~jobs c
    in
    match r.Mc.Explore.violations with
    | [] -> Alcotest.failf "jobs=%d: the seeded bug was not found" jobs
    | v :: _ -> v.Mc.Explore.blackbox
  in
  let first = blackbox 1 in
  check bool "black box attached" true (first <> "");
  List.iter
    (fun (what, jobs) ->
      check Alcotest.string (what ^ ": same black box") first (blackbox jobs))
    [ ("second call, jobs=1", 1); ("jobs=2", 2); ("jobs=3", 3) ];
  let stream run =
    let recorder = Obs.Recorder.create () in
    let sink = Obs.Sink.create () in
    Obs.Sink.set_recorder sink (Some recorder);
    ignore (run { c with Mc.Harness.sink = Some sink } : _ * _);
    let records = ref [] in
    Obs.Recorder.iter recorder (fun ~kind ~ts_us ~node ~a ~b ->
        records := (kind, ts_us, node, a, b) :: !records);
    List.rev !records
  in
  let fresh = stream (fun cfg -> Mc.Harness.run cfg) in
  let r = Mc.Harness.reusable c in
  (* dirty the reusable world first, so the reset has state to rewind *)
  ignore (Mc.Harness.run_reused r c : _ * _);
  check bool "reset available" true (Mc.Harness.reset r c);
  let reused = stream (fun cfg -> Mc.Harness.run_reused r cfg) in
  check bool "restored world = fresh world, fiber ids included" true
    (fresh = reused);
  match
    List.find_opt
      (fun (kind, _, _, _, _) -> kind = Obs.Recorder.k_fiber_spawn)
      fresh
  with
  | Some (_, _, _, id, _) -> check int "first fiber id" 1 id
  | None -> Alcotest.fail "no fiber-spawn record"

(* ------------------------------------------------------------------ *)
(* Pool: the report is the same at any number of worker domains *)

(* Everything observable about a report except timing. *)
let report_key (r : Mc.Explore.report) =
  ( r.Mc.Explore.schedules,
    r.Mc.Explore.distinct,
    r.Mc.Explore.steps_total,
    List.map
      (fun (v : Mc.Explore.violation) ->
        (v.Mc.Explore.invariant, v.Mc.Explore.seed, v.Mc.Explore.counterexample))
      r.Mc.Explore.violations )

let test_pool_jobs_equivalence_random_clean () =
  let c = cfg 6 in
  let strategy = Mc.Strategy.Random { delay_prob = 0.02; reorder_prob = 0.3 } in
  let j1 = Mc.Explore.explore ~strategy ~budget:60 ~jobs:1 c in
  let j4 = Mc.Explore.explore ~strategy ~budget:60 ~jobs:4 c in
  check bool "jobs=1 = jobs=4 (random, clean)" true
    (report_key j1 = report_key j4);
  check int "all schedules ran" 60 j4.Mc.Explore.schedules

let test_pool_jobs_equivalence_bounded_clean () =
  (* clean bounded search: each BFS level is raced over the shards in an
     arbitrary order, but the merge hands back the exact FIFO prefix —
     schedule and distinct counts included *)
  let c = cfg 6 in
  let strategy = Mc.Strategy.Bounded { depth = 1 } in
  let j1 = Mc.Explore.explore ~strategy ~budget:80 ~jobs:1 c in
  let j4 = Mc.Explore.explore ~strategy ~budget:80 ~jobs:4 c in
  check bool "jobs=1 = jobs=4 (bounded, clean)" true
    (report_key j1 = report_key j4);
  check int "distinct matches" j1.Mc.Explore.distinct j4.Mc.Explore.distinct;
  check int "steps match" j1.Mc.Explore.steps_total j4.Mc.Explore.steps_total

let test_pool_jobs_equivalence_bounded_buggy () =
  (* the seeded bug: same violation (invariant, seed, shrunk
     counterexample), same schedule counts, whatever the domain count *)
  let strategy = Mc.Strategy.Bounded { depth = 1 } in
  let j1 = Mc.Explore.explore ~strategy ~budget:300 ~jobs:1 buggy in
  let j4 = Mc.Explore.explore ~strategy ~budget:300 ~jobs:4 buggy in
  check bool "violation found" true (j1.Mc.Explore.violations <> []);
  check bool "jobs=1 = jobs=4 (bounded, buggy)" true
    (report_key j1 = report_key j4)

let test_pool_jobs_equivalence_random_buggy () =
  let strategy = Mc.Strategy.Random { delay_prob = 0.08; reorder_prob = 0.3 } in
  let j1 = Mc.Explore.explore ~strategy ~budget:400 ~jobs:1 buggy in
  let j3 = Mc.Explore.explore ~strategy ~budget:400 ~jobs:3 buggy in
  check bool "violation found" true (j1.Mc.Explore.violations <> []);
  check bool "jobs=1 = jobs=3 (random, buggy)" true
    (report_key j1 = report_key j3)

(* Depth-2 searches whose budget runs out inside a BFS level, pinned to
   the values the sequential FIFO explorer produced: the level-by-level
   runner must take exactly the FIFO's prefix of the level, at any jobs. *)
let check_pinned name ~budget c expected =
  let strategy = Mc.Strategy.Bounded { depth = 2 } in
  List.iter
    (fun jobs ->
      check bool
        (Printf.sprintf "%s, jobs=%d" name jobs)
        true
        (report_key (Mc.Explore.explore ~strategy ~budget ~jobs c) = expected))
    [ 1; 2 ]

let test_pool_pinned_bounded_clean () =
  (* 1 root + 52 depth-1 children; the budget ends in depth 2 *)
  check_pinned "clean depth 2, budget 150" ~budget:150 (cfg 6)
    (150, 43, 11526, [])

let test_pool_pinned_bounded_buggy () =
  (* the first depth-1 child already violates; the budget would end
     inside depth 1 *)
  check_pinned "buggy depth 2, budget 40" ~budget:40 buggy
    ( 2,
      2,
      174,
      [ ("agreement", 1L, [ Mc.Schedule.Delay { packet = 0 } ]) ] )

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "mc.choice_points",
      [
        Alcotest.test_case "ready_count" `Quick test_ready_count;
        Alcotest.test_case "pop_nth" `Quick test_pop_nth;
        Alcotest.test_case "pop_nth clamped" `Quick test_pop_nth_clamped;
        Alcotest.test_case "pop_nth heap invariant" `Quick
          test_pop_nth_heap_invariant;
        Alcotest.test_case "scheduler reorder" `Quick
          test_engine_scheduler_reorder;
        Alcotest.test_case "scheduler Take 0 = default" `Quick
          test_engine_scheduler_take0_is_default;
      ] );
    ( "mc.harness",
      [
        Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
        Alcotest.test_case "packet log without a recorder" `Quick
          test_harness_packet_log_without_recorder;
        Alcotest.test_case "replay deviations" `Quick
          test_harness_replay_deviations;
      ] );
    ( "mc.reuse",
      [
        Alcotest.test_case "matches fresh across seeds" `Quick
          test_reuse_matches_fresh_across_seeds;
        Alcotest.test_case "matches fresh across variants" `Quick
          test_reuse_matches_fresh_across_variants;
        Alcotest.test_case "rebuilds on projection change" `Quick
          test_reuse_rebuilds_on_projection_change;
        Alcotest.test_case "snap restore unit" `Quick test_snap_restore_unit;
        Alcotest.test_case "diff mode engaged + restore = fresh" `Quick
          test_diff_mode_engaged;
        Alcotest.test_case "diff survives crash runs" `Quick
          test_diff_survives_crash_runs;
        Alcotest.test_case "diff mode for every config shape" `Quick
          test_diff_mode_every_shape;
      ] );
    ( "mc.invariants",
      [
        Alcotest.test_case "hier properties on hand-built streams" `Quick
          test_hier_properties;
        Alcotest.test_case "catch hand-built violations" `Quick
          test_invariants_catch_violations;
      ] );
    ( "mc.shrink",
      [
        Alcotest.test_case "two-culprit schedule" `Quick test_shrink_synthetic;
        Alcotest.test_case "prefix-only" `Quick test_shrink_prefix_only;
      ] );
    ( "mc.explore",
      [
        Alcotest.test_case "random walk clean" `Quick test_explore_random_clean;
        Alcotest.test_case "crash perturbation clean" `Quick
          test_explore_crash_clean;
        Alcotest.test_case "bounded search clean" `Quick
          test_explore_bounded_clean;
      ] );
    ( "mc.pool",
      [
        Alcotest.test_case "jobs equivalence (random, clean)" `Quick
          test_pool_jobs_equivalence_random_clean;
        Alcotest.test_case "jobs equivalence (bounded, clean)" `Quick
          test_pool_jobs_equivalence_bounded_clean;
        Alcotest.test_case "jobs equivalence (bounded, buggy)" `Quick
          test_pool_jobs_equivalence_bounded_buggy;
        Alcotest.test_case "jobs equivalence (random, buggy)" `Quick
          test_pool_jobs_equivalence_random_buggy;
        Alcotest.test_case "pinned order (bounded depth 2, clean)" `Quick
          test_pool_pinned_bounded_clean;
        Alcotest.test_case "pinned order (bounded depth 2, buggy)" `Quick
          test_pool_pinned_bounded_buggy;
      ] );
    ( "mc.seeded_bug",
      [
        Alcotest.test_case "dormant by default" `Quick
          test_seeded_bug_dormant_by_default;
        Alcotest.test_case "found and shrunk" `Quick
          test_seeded_bug_found_and_shrunk;
        Alcotest.test_case "random walk finds it" `Quick
          test_seeded_bug_random_walk_finds_it;
        Alcotest.test_case "black box replays" `Quick test_blackbox_replays;
      ] );
  ]
