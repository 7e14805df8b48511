(* Tests for PR 9's flight-recorder pillar: the ring buffer's wrap
   behaviour (exactly full, off-by-one, records straddling the wrap
   surviving a dump/load round-trip), the zero-allocation emit loop,
   [Stats.Histogram.quantile] and the metrics percentiles built on it,
   [Obs.Check] verdict dedup / watchdog re-arm / membership
   agreement, the [Obs.Postmortem] dump format, and the seeded
   end-to-end token-loss run: partition the ring mid-rotation, watch
   the check raise the liveness verdict, and check the postmortem names
   the dropped hop. *)

module Span = Dsim.Time.Span
module Net = Netsim.Network
module Nid = Netsim.Node_id
module Rec = Obs.Recorder
module Cluster = Scenario.Cluster

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* Recorder ring                                                       *)

let fill r k =
  (* records with recognizable payloads: record [i] is (i, i*2, i*3) *)
  for i = 0 to k - 1 do
    Rec.emit r ~kind:Rec.k_send ~ts_us:i ~node:(i * 2) ~a:(i * 3) ~b:i
  done

let collect r =
  let out = ref [] in
  Rec.iter r (fun ~kind:_ ~ts_us ~node:_ ~a:_ ~b:_ -> out := ts_us :: !out);
  List.rev !out

let test_recorder_basic () =
  let r = Rec.create ~capacity:8 () in
  check int "empty length" 0 (Rec.length r);
  fill r 3;
  check int "partial length" 3 (Rec.length r);
  check int "partial dropped" 0 (Rec.dropped r);
  check bool "oldest-first iteration" true (collect r = [ 0; 1; 2 ]);
  Rec.clear r;
  check int "cleared" 0 (Rec.length r);
  check int "cleared total" 0 (Rec.total r)

let test_recorder_wrap_exact () =
  (* window exactly full: every record still present, nothing dropped *)
  let r = Rec.create ~capacity:8 () in
  fill r 8;
  check int "full length" 8 (Rec.length r);
  check int "full dropped" 0 (Rec.dropped r);
  check bool "full window order" true
    (collect r = [ 0; 1; 2; 3; 4; 5; 6; 7 ])

let test_recorder_wrap_off_by_one () =
  (* capacity + 1 emits: the single oldest record is the one evicted *)
  let r = Rec.create ~capacity:8 () in
  fill r 9;
  check int "length stays at capacity" 8 (Rec.length r);
  check int "one dropped" 1 (Rec.dropped r);
  check int "total keeps counting" 9 (Rec.total r);
  check bool "window slid by one" true
    (collect r = [ 1; 2; 3; 4; 5; 6; 7; 8 ])

let test_recorder_wrap_straddle () =
  (* many wraps, stopping mid-ring: the window must straddle the
     physical end of the array and still come out oldest-first *)
  let r = Rec.create ~capacity:8 () in
  fill r 21;
  check int "straddle length" 8 (Rec.length r);
  check int "straddle dropped" 13 (Rec.dropped r);
  check bool "straddle order" true
    (collect r = [ 13; 14; 15; 16; 17; 18; 19; 20 ])

let test_recorder_clear_then_refill () =
  (* clear resets both the window and the total, and the ring is fully
     usable afterwards — including wrapping around again *)
  let r = Rec.create ~capacity:3 () in
  fill r 7;
  Rec.clear r;
  check int "length reset" 0 (Rec.length r);
  check int "total reset" 0 (Rec.total r);
  check bool "window empty" true (collect r = []);
  fill r 5;
  check int "refilled past capacity" 3 (Rec.length r);
  check int "total restarts from zero" 5 (Rec.total r);
  check int "dropped restarts from zero" 2 (Rec.dropped r);
  check bool "window slid after reuse" true (collect r = [ 2; 3; 4 ])

let test_recorder_zero_alloc () =
  (* the steady-state wrap path allocates nothing: run enough emits to
     wrap the ring many times and demand an exactly-zero minor-heap
     delta (any boxing would show up as >= 2 words per emit) *)
  let r = Rec.create ~capacity:1024 () in
  fill r 1024;
  let w0 = Gc.minor_words () in
  fill r 100_000;
  let dw = Gc.minor_words () -. w0 in
  check bool
    (Printf.sprintf "emit loop allocated %.0f words (want 0)" dw)
    true (dw = 0.)

let test_recorder_dump_survives_wrap () =
  (* records straddling the wrap survive a dump/load round-trip with
     order, payloads and wrap accounting intact *)
  let r = Rec.create ~capacity:8 () in
  fill r 21;
  let s = Obs.Postmortem.dump_string r [] in
  match Obs.Postmortem.load_string s with
  | Error e -> Alcotest.failf "load_string: %s" e
  | Ok w ->
      check int "loaded records" 8 (Array.length w.Obs.Postmortem.records);
      check int "loaded total" 21 w.Obs.Postmortem.w_total;
      check int "loaded dropped" 13 w.Obs.Postmortem.w_dropped;
      Array.iteri
        (fun i (rec_ : Obs.Postmortem.record) ->
          let expect = 13 + i in
          check int "ts" expect rec_.Obs.Postmortem.ts_us;
          check int "node" (expect * 2) rec_.Obs.Postmortem.node;
          check int "a" (expect * 3) rec_.Obs.Postmortem.a;
          check int "b" expect rec_.Obs.Postmortem.b)
        w.Obs.Postmortem.records

let test_postmortem_rejects_garbage () =
  (match Obs.Postmortem.load_string "not a dump" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  let r = Rec.create ~capacity:4 () in
  fill r 2;
  let s = Obs.Postmortem.dump_string r [] in
  match Obs.Postmortem.load_string (s ^ "R 1 2\n") with
  | Ok _ -> Alcotest.fail "accepted truncated record line"
  | Error e -> check bool "error names the line" true (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* Histogram quantiles                                                 *)

let test_histogram_quantile () =
  let h = Stats.Histogram.create ~bin_width:10. () in
  (* 100 samples spread uniformly over [0, 1000) *)
  for i = 0 to 99 do
    Stats.Histogram.add h (float_of_int i *. 10.)
  done;
  let q p = Stats.Histogram.quantile h p in
  check bool "p50 in the middle" true (abs_float (q 0.5 -. 500.) <= 10.);
  check bool "p95 near the top" true (abs_float (q 0.95 -. 950.) <= 10.);
  check bool "p0 is the floor" true (q 0. <= 10.);
  check bool "p100 is the ceiling" true (abs_float (q 1. -. 1000.) <= 10.);
  check bool "monotone" true (q 0.5 <= q 0.95 && q 0.95 <= q 0.99);
  (let empty = Stats.Histogram.create ~bin_width:1. () in
   match Stats.Histogram.quantile empty 0.5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "quantile on empty histogram");
  match Stats.Histogram.quantile h 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "quantile out of range"

let test_metrics_json_percentiles () =
  let m = Obs.Metrics.create () in
  for i = 1 to 100 do
    Obs.Metrics.observe m Obs.Metrics.Rpc_latency_us (float_of_int i)
  done;
  let json = Obs.Metrics.to_json m in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "histogram json has p50" true (has "\"p50\"");
  check bool "histogram json has p95" true (has "\"p95\"");
  check bool "histogram json has p99" true (has "\"p99\"")

(* ------------------------------------------------------------------ *)
(* Check: the online monitors                                         *)

let test_health_dedup () =
  let h = Obs.Check.create () in
  (* three regressions of the same invariant on two nodes: one incident,
     count 3, worst value and its node retained *)
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:100 ~node:1 ~a:500 ~b:0;
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:200 ~node:1 ~a:400 ~b:0;
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:300 ~node:1 ~a:390 ~b:0;
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:400 ~node:2 ~a:900 ~b:0;
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:500 ~node:2 ~a:100 ~b:0;
  match Obs.Check.verdicts h with
  | [ i ] ->
      check string "invariant" "monotone" i.Obs.Check.inv;
      check int "count" 3 i.Obs.Check.count;
      check int "first" 200 i.Obs.Check.first_us;
      check int "last" 500 i.Obs.Check.last_us;
      check int "worst regression" 800 i.Obs.Check.worst;
      check int "worst node" 2 i.Obs.Check.node
  | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is)

let test_health_token_rearm () =
  let config =
    { Obs.Check.default_config with Obs.Check.token_timeout_us = 1000 }
  in
  let h = Obs.Check.create ~config () in
  let token ts node =
    Obs.Check.step h ~kind:Rec.k_token ~ts_us:ts ~node ~a:0 ~b:0
  in
  let tick ts =
    (* any record ticks the watchdog *)
    Obs.Check.step h ~kind:Rec.k_send ~ts_us:ts ~node:0 ~a:1 ~b:0
  in
  token 0 3;
  tick 500;
  check int "within timeout: quiet" 0 (List.length (Obs.Check.verdicts h));
  tick 1500;
  tick 1600;
  tick 2000;
  (match Obs.Check.verdicts h with
  | [ i ] ->
      check string "invariant" "token-liveness" i.Obs.Check.inv;
      check int "one alarm per episode" 1 i.Obs.Check.count;
      check int "names last holder" 3 i.Obs.Check.node
  | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is));
  (* token resumes: watchdog re-arms, a second silence is a new alarm
     on the same (deduplicated) incident *)
  token 2500 0;
  tick 4000;
  match Obs.Check.verdicts h with
  | [ i ] -> check int "second episode counted" 2 i.Obs.Check.count
  | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is)

let test_health_membership () =
  let h = Obs.Check.create () in
  let op ts node gen members =
    Obs.Check.step h ~kind:Rec.k_operational ~ts_us:ts ~node ~a:gen
      ~b:members
  in
  op 100 0 7 4;
  op 110 1 7 4;
  op 120 2 8 3;
  check int "agreeing views: quiet" 0 (List.length (Obs.Check.verdicts h));
  op 130 3 7 3;
  (match Obs.Check.verdicts h with
  | [ i ] ->
      check string "invariant" "membership-agreement" i.Obs.Check.inv;
      check int "member-count difference" 1 i.Obs.Check.worst;
      check int "disagreeing node" 3 i.Obs.Check.node
  | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is));
  (* a Totem ring is (rep, gen): two rings of one generation, with
     different representatives, are different rings *)
  let h2 = Obs.Check.create () in
  let op ts node ~rep gen members =
    Obs.Check.step h2 ~kind:Rec.k_operational ~ts_us:ts ~node ~a:gen
      ~b:(Rec.operational_b ~members ~rep)
  in
  op 100 0 ~rep:0 7 3;
  op 110 1 ~rep:0 7 3;
  op 130 3 ~rep:3 7 1;
  check int "two rings of one generation stay quiet" 0
    (List.length (Obs.Check.verdicts h2));
  op 140 2 ~rep:0 7 2;
  check int "a disagreement within one of them is caught" 1
    (List.length (Obs.Check.verdicts h2))

let test_health_skew_envelope () =
  let config =
    { Obs.Check.default_config with Obs.Check.skew_bound_us = 100 }
  in
  let h = Obs.Check.create ~config () in
  let gc ts node v =
    Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:ts ~node ~a:v ~b:0
  in
  (* offsets (gc - sim time): node 0 at +0, node 1 at +50 — inside *)
  gc 1000 0 1000;
  gc 1000 1 1050;
  check int "inside the envelope" 0 (List.length (Obs.Check.verdicts h));
  (* node 2 at +300: spread 300 > 100 *)
  gc 1010 2 1310;
  match Obs.Check.verdicts h with
  | [ i ] ->
      check string "invariant" "skew-envelope" i.Obs.Check.inv;
      check int "spread" 300 i.Obs.Check.worst;
      check int "worst node" 2 i.Obs.Check.node
  | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is)

(* ------------------------------------------------------------------ *)
(* Incidents in the dump                                               *)

let test_dump_roundtrip_incidents () =
  let r = Rec.create ~capacity:16 () in
  fill r 4;
  let h = Obs.Check.create () in
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:100 ~node:1 ~a:500 ~b:0;
  Obs.Check.step h ~kind:Rec.k_gc_sample ~ts_us:200 ~node:1 ~a:400 ~b:0;
  let s = Obs.Postmortem.dump_string r (Obs.Check.verdicts h) in
  match Obs.Postmortem.load_string s with
  | Error e -> Alcotest.failf "load_string: %s" e
  | Ok w -> (
      match w.Obs.Postmortem.verdicts with
      | [ i ] ->
          check string "invariant survives" "monotone" i.Obs.Check.inv;
          check int "count survives" 1 i.Obs.Check.count;
          check int "worst survives" 100 i.Obs.Check.worst;
          check int "witness index survives" 1 i.Obs.Check.at
      | is -> Alcotest.failf "expected 1 incident, got %d" (List.length is))

(* ------------------------------------------------------------------ *)
(* End-to-end: seeded token loss -> liveness incident -> postmortem    *)

let test_token_loss_e2e () =
  let recorder = Rec.create ~capacity:16_384 () in
  let health =
    Obs.Check.create
      ~config:
        {
          Obs.Check.default_config with
          (* totem's token-loss timeout is 3 ms and ring recovery takes
             a few more, so a 2 ms watchdog fires inside the outage
             window — before the ring heals itself *)
          Obs.Check.token_timeout_us = 2_000;
        }
      ()
  in
  let sink = Obs.Sink.create () in
  Obs.Sink.set_recorder sink (Some recorder);
  Obs.Sink.set_check sink (Some health);
  let cluster = Cluster.create ~seed:97L ~obs:sink ~nodes:4 () in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1; 2; 3 ]);
  (* let the token rotate a while so the window has steady-state
     traffic before the fault *)
  Cluster.run_for cluster (Span.of_ms 20);
  check int "healthy run: no incidents" 0 (List.length (Obs.Check.verdicts health));
  (* partition node 3 away: the next token hop into (or out of) it is
     dropped with reason [Partitioned], and the ring falls silent until
     totem's own loss timeout rebuilds it as a 3-node ring *)
  Net.partition cluster.Cluster.net
    [ List.map Nid.of_int [ 0; 1; 2 ]; [ Nid.of_int 3 ] ];
  Cluster.run_until ~limit:(Span.of_sec 5) cluster (fun () ->
      List.length (Obs.Check.verdicts health) > 0);
  let incident =
    match Obs.Check.verdicts health with
    | i :: _ -> i
    | [] -> Alcotest.fail "no incident raised"
  in
  check string "liveness incident" "token-liveness" incident.Obs.Check.inv;
  check bool "silent gap at least the timeout" true
    (incident.Obs.Check.worst >= 2_000);
  (* heal and confirm the survivors re-form: the incident is a recorded
     episode, not a wedged monitor *)
  Net.heal cluster.Cluster.net;
  Cluster.run_until ~limit:(Span.of_sec 10) cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1; 2; 3 ]);
  (* both sides of the partition installed a ring of one generation,
     {0,1,2} and {3}: different representatives, so different rings *)
  check bool "no membership verdict across the partition" false
    (List.exists
       (fun v -> v.Obs.Check.inv = "membership-agreement")
       (Obs.Check.verdicts health));
  (* the black box: dump, reload, and ask the postmortem who did it *)
  let dump = Obs.Postmortem.dump_string recorder (Obs.Check.verdicts health) in
  let w =
    match Obs.Postmortem.load_string dump with
    | Ok w -> w
    | Error e -> Alcotest.failf "load_string: %s" e
  in
  let suspect =
    match
      List.find_opt
        (fun s -> s.Obs.Postmortem.s_inv = "token-liveness")
        (Obs.Postmortem.suspects w)
    with
    | Some s -> s
    | None -> Alcotest.fail "no token-liveness suspect"
  in
  (* the suspect line must name the faulted hop: the last token holder
     and the onward drop *)
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check bool "suspect names the drop" true
    (has "dropped" suspect.Obs.Postmortem.s_desc);
  check bool "suspect names the partition" true
    (has "partitioned" suspect.Obs.Postmortem.s_desc);
  check bool "suspect pins a record" true
    (suspect.Obs.Postmortem.s_record <> None);
  (* and the pinned record really is a partition drop *)
  match suspect.Obs.Postmortem.s_record with
  | None -> ()
  | Some idx ->
      let r = w.Obs.Postmortem.records.(idx) in
      check int "pinned record is a drop" Rec.k_drop r.Obs.Postmortem.kind;
      check string "with reason partitioned" "partitioned"
        (Rec.drop_reason_name r.Obs.Postmortem.b)

let suites =
  [
    ( "flight",
      [
        Alcotest.test_case "recorder basics" `Quick test_recorder_basic;
        Alcotest.test_case "wrap: exactly full" `Quick
          test_recorder_wrap_exact;
        Alcotest.test_case "wrap: off by one" `Quick
          test_recorder_wrap_off_by_one;
        Alcotest.test_case "wrap: straddling window" `Quick
          test_recorder_wrap_straddle;
        Alcotest.test_case "wrap: clear then refill" `Quick
          test_recorder_clear_then_refill;
        Alcotest.test_case "emit loop is allocation-free" `Quick
          test_recorder_zero_alloc;
        Alcotest.test_case "dump survives wrap" `Quick
          test_recorder_dump_survives_wrap;
        Alcotest.test_case "load rejects malformed dumps" `Quick
          test_postmortem_rejects_garbage;
        Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
        Alcotest.test_case "metrics json percentiles" `Quick
          test_metrics_json_percentiles;
        Alcotest.test_case "health: incident dedup" `Quick test_health_dedup;
        Alcotest.test_case "health: token watchdog re-arms" `Quick
          test_health_token_rearm;
        Alcotest.test_case "health: membership agreement" `Quick
          test_health_membership;
        Alcotest.test_case "health: skew envelope" `Quick
          test_health_skew_envelope;
        Alcotest.test_case "dump round-trips incidents" `Quick
          test_dump_roundtrip_incidents;
        Alcotest.test_case "token loss e2e: incident + postmortem" `Quick
          test_token_loss_e2e;
      ] );
  ]
