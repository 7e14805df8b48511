module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id

(* ------------------------------------------------------------------ *)
(* Common setup: client on n0, replicas on n1..nR                      *)

type rig = {
  cluster : Cluster.t;
  replicas : Repl.Replica.t list;
  client : Rpc.Client.t;
}

let replica_nodes replicas = List.init replicas (fun k -> k + 1)

let setup ?(seed = 1L) ?(replicas = 3) ?clock_config ?totem_config
    ?(style = Repl.Replica.Active) ?(use_cts = true)
    ?(drift = fun _ -> Cts.Drift.No_compensation) ?(offset_tracking = true)
    ?(recorder = fun _ -> Apps.null_recorder) ?obs () =
  let cluster =
    Cluster.create ~seed ?clock_config ?totem_config ?obs
      ~nodes:(replicas + 1) ()
  in
  let drift = drift cluster in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster
        ~on_nodes:(List.init (replicas + 1) Fun.id));
  let initial_members =
    List.map Nid.of_int (replica_nodes replicas)
  in
  let config =
    {
      Repl.Replica.default_config with
      style;
      drift;
      offset_tracking;
      initial_members;
    }
  in
  let reps =
    List.map
      (fun node ->
        Repl.Replica.create cluster.Cluster.eng
          ~endpoint:cluster.Cluster.nodes.(node).Cluster.endpoint
          ~group:cluster.Cluster.server_group
          ~clock:cluster.Cluster.nodes.(node).Cluster.clock ~config
          ~app:
            (Apps.time_server cluster ~node ~use_cts
               ~recorder:(recorder node) ())
          ())
      (replica_nodes replicas)
  in
  let client =
    Rpc.Client.create cluster.Cluster.eng
      ~endpoint:cluster.Cluster.nodes.(0).Cluster.endpoint
      ~my_group:cluster.Cluster.client_group
      ~server_group:cluster.Cluster.server_group ()
  in
  (* Wait until every node has a complete, identical picture of the server
     group and the client group. *)
  Cluster.run_until cluster (fun () ->
      Array.for_all
        (fun (n : Cluster.node) ->
          List.length
            (Gcs.Endpoint.members_of n.Cluster.endpoint
               cluster.Cluster.server_group)
          = replicas
          && List.length
               (Gcs.Endpoint.members_of n.Cluster.endpoint
                  cluster.Cluster.client_group)
             = 1)
        cluster.Cluster.nodes);
  List.iter
    (fun r -> Cts.Service.reset_stats (Repl.Replica.service r))
    reps;
  { cluster; replicas = reps; client }

(* Run a client workload inside a fiber and drive the engine to completion. *)
let run_client rig f =
  let finished = ref false in
  Dsim.Fiber.spawn rig.cluster.Cluster.eng (fun () ->
      f rig.client;
      finished := true);
  Cluster.run_until ~limit:(Span.of_sec 7200) rig.cluster (fun () ->
      !finished)

(* ------------------------------------------------------------------ *)
(* E2 — Figure 5                                                       *)

type latency_run = {
  summary : Stats.Summary.t;
  histogram : Stats.Histogram.t;
}

let latency ?seed ?(invocations = 10_000) ?replicas ?totem_config ~use_cts ()
    =
  let rig = setup ?seed ?replicas ?totem_config ~use_cts () in
  let summary = Stats.Summary.create () in
  let histogram = Stats.Histogram.create ~bin_width:20. () in
  run_client rig (fun client ->
      for _ = 1 to invocations do
        let _, lat = Rpc.Client.invoke_timed client ~op:"gettimeofday" ~arg:"" in
        let us = float_of_int (Span.to_us lat) in
        Stats.Summary.add summary us;
        Stats.Histogram.add histogram us
      done);
  { summary; histogram }

(* ------------------------------------------------------------------ *)
(* E3-E6 / A1 — Figure 6: the clock-sequence experiment                *)

type round_sample = {
  round : int;
  real : Time.t;
  pc : Time.t;
  gc : Time.t;
  offset : Span.t;
}

type skew_run = {
  samples : round_sample list array;
  ccs_sent : int array;
  ccs_suppressed : int array;
  ccs_rounds : int array;
  rounds_total : int;
  cluster : Cluster.t;
}

type compensation =
  [ `No_compensation | `Mean_delay of int | `Anchored of float * int ]

let drift_strategies = [ `No_compensation; `Mean_delay 50; `Anchored (0.1, 50) ]

let compensation_name = function
  | `No_compensation -> "no compensation"
  | `Mean_delay us -> Printf.sprintf "mean-delay (+%d us)" us
  | `Anchored (gain, _) -> Printf.sprintf "anchored (gain %g)" gain

let skew ?seed ?(rounds = 100) ?(replicas = 3)
    ?(compensation : compensation = `No_compensation) ?obs () =
  let acc = Array.make replicas [] in
  let recorder node =
    (* node 1 -> replica index 0 *)
    let idx = node - 1 in
    {
      Apps.on_round =
        (fun ~round ~real ~pc ~gc ~offset ->
          acc.(idx) <- { round; real; pc; gc; offset } :: acc.(idx));
    }
  in
  let drift cluster =
    match compensation with
    | `No_compensation -> Cts.Drift.No_compensation
    | `Mean_delay us -> Cts.Drift.Mean_delay (Span.of_us us)
    | `Anchored (gain, max_skew_us) ->
        Cts.Drift.Anchored
          {
            source =
              Clock.External_source.create cluster.Cluster.eng
                ~max_skew:(Span.of_us max_skew_us);
            gain;
          }
  in
  let rig = setup ?seed ~replicas ~drift ~recorder ?obs () in
  let arg = Printf.sprintf "%d:100,200,300" rounds in
  run_client rig (fun client ->
      ignore (Rpc.Client.invoke client ~op:"seq" ~arg : string));
  (* The client returns once a quorum replies, so the laggard replica's
     final round can still be in flight.  Let it drain, otherwise the
     per-replica samples and obs events undercount the last round on a
     seed-dependent minority of schedules. *)
  Cluster.run_for rig.cluster (Span.of_ms 50);
  let stats r = Cts.Service.stats (Repl.Replica.service r) in
  {
    samples = Array.map List.rev acc;
    ccs_sent =
      Array.of_list
        (List.map (fun r -> (stats r).Cts.Service.ccs_sent) rig.replicas);
    ccs_suppressed =
      Array.of_list
        (List.map (fun r -> (stats r).Cts.Service.suppressed) rig.replicas);
    ccs_rounds =
      Array.of_list
        (List.map (fun r -> (stats r).Cts.Service.rounds_completed) rig.replicas);
    rounds_total = rounds;
    cluster = rig.cluster;
  }

let drift_slope run =
  let points =
    Array.to_list run.samples
    |> List.concat_map
         (List.map (fun s ->
              ( Time.to_sec_f s.real,
                float_of_int (Span.to_us (Time.diff s.gc s.real)) )))
  in
  (Stats.Regression.fit points).Stats.Regression.slope

let drift_per_round run =
  let points =
    Array.to_list run.samples
    |> List.concat_map
         (List.map (fun s ->
              ( float_of_int s.round,
                float_of_int (Span.to_us (Time.diff s.gc s.real)) )))
  in
  (Stats.Regression.fit points).Stats.Regression.slope

type drift_stats = {
  per_round_us : float;
  per_second_us : float;
  rounds_per_sec : float;
}

let drift_stats run =
  let per_round_us = drift_per_round run in
  let per_second_us = drift_slope run in
  let rounds_per_sec =
    (* Issue rate measured on replica 0's sample stream. *)
    match run.samples.(0) with
    | ({ real = first; _ } :: _ as samples) when List.length samples >= 2 ->
        let last = List.nth samples (List.length samples - 1) in
        let elapsed = Time.to_sec_f last.real -. Time.to_sec_f first in
        if elapsed > 0. then float_of_int (List.length samples - 1) /. elapsed
        else 0.
    | _ -> 0.
  in
  { per_round_us; per_second_us; rounds_per_sec }

(* ------------------------------------------------------------------ *)
(* A2 — roll-back / fast-forward on failover                           *)

type rollback_run = {
  readings : int;
  failovers : int;
  client_rollbacks : int;
  client_max_rollback : Span.t;
  client_max_jump : Span.t;
}

let rollback ?(readings_per_phase = 30) ~style ~offset_tracking () =
  let replicas = 3 in
  (* node i's physical clock is (i-1)*300 ms behind node 1's *)
  let clock_config i =
    {
      Clock.Hwclock.default_config with
      offset = Span.of_ms (-300 * (i - 1));
    }
  in
  let rig = setup ~replicas ~style ~offset_tracking ~clock_config () in
  let readings = ref 0 in
  let rollbacks = ref 0 in
  let max_rollback = ref Span.zero in
  let max_jump = ref Span.zero in
  let last = ref None in
  let note v =
    incr readings;
    (match !last with
    | Some prev ->
        if Time.(v < prev) then begin
          incr rollbacks;
          let m = Time.diff prev v in
          if Span.(m > !max_rollback) then max_rollback := m
        end
        else begin
          let j = Time.diff v prev in
          if Span.(j > !max_jump) then max_jump := j
        end
    | None -> ());
    last := Some v
  in
  let reps = Array.of_list rig.replicas in
  run_client rig (fun client ->
      let read_phase () =
        for _ = 1 to readings_per_phase do
          let r =
            Rpc.Client.invoke ~timeout:(Span.of_ms 100) client
              ~op:"gettimeofday" ~arg:""
          in
          note (Time.of_ns (int_of_string r))
        done
      in
      read_phase ();
      for victim = 0 to replicas - 2 do
        Repl.Replica.crash reps.(victim);
        (* wait for the membership change to finish *)
        Dsim.Fiber.sleep rig.cluster.Cluster.eng (Span.of_ms 30);
        read_phase ();
        ignore victim
      done);
  {
    readings = !readings;
    failovers = replicas - 1;
    client_rollbacks = !rollbacks;
    client_max_rollback = !max_rollback;
    client_max_jump = !max_jump;
  }

(* ------------------------------------------------------------------ *)
(* M1 — token calibration                                              *)

type token_run = {
  hop_summary : Stats.Summary.t;
  hop_histogram : Stats.Histogram.t;
  rotations : int;
}

let token_calibration ?(rotations = 10_000) () =
  let nodes = 4 in
  let cluster = Cluster.create ~seed:1L ~nodes () in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:(List.init nodes Fun.id));
  let hop_summary = Stats.Summary.create () in
  let hop_histogram = Stats.Histogram.create ~bin_width:2. () in
  let seen = ref 0 in
  let last_arrival = ref None in
  let eng = cluster.Cluster.eng in
  Totem.Node.on_token
    (Gcs.Endpoint.totem cluster.Cluster.nodes.(0).Cluster.endpoint)
    (fun _tok ->
      let now = Dsim.Engine.now eng in
      (match !last_arrival with
      | Some prev ->
          incr seen;
          let rotation = Time.diff now prev in
          let hop = float_of_int (Span.to_us rotation) /. float_of_int nodes in
          Stats.Summary.add hop_summary hop;
          Stats.Histogram.add hop_histogram hop
      | None -> ());
      last_arrival := Some now);
  Cluster.run_until ~limit:(Span.of_sec 60) cluster (fun () ->
      !seen >= rotations);
  { hop_summary; hop_histogram; rotations = !seen }

(* ------------------------------------------------------------------ *)
(* E1 — Figure 4 worked example                                        *)

type fig4_row = {
  f4_round : int;
  f4_replica : int;
  f4_pc_min : float;
  f4_gc_min : float;
  f4_offset_min : float;
}

(* One paper "minute" = 1 simulated millisecond. *)
let minute = 1000. (* microseconds *)

let fig4 () =
  let cluster =
    Cluster.create ~seed:7L
      ~latency:(Netsim.Latency.Constant (Span.of_us 1))
      ~nodes:3 ()
  in
  let eng = cluster.Cluster.eng in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1; 2 ]);
  let group = cluster.Cluster.server_group in
  let services =
    Array.map
      (fun (n : Cluster.node) ->
        let service =
          Cts.Service.create eng ~endpoint:n.Cluster.endpoint ~group
            ~clock:n.Cluster.clock ()
        in
        Gcs.Endpoint.join_group n.Cluster.endpoint group
          ~handler:(fun ev ->
            match ev with
            | Gcs.Endpoint.Deliver { msg; _ } ->
                Cts.Service.on_message service msg
            | Gcs.Endpoint.View_change v -> Cts.Service.on_view service v
            | Gcs.Endpoint.Block | Gcs.Endpoint.Evicted -> ());
        service)
      cluster.Cluster.nodes
  in
  Cluster.run_until cluster (fun () ->
      List.length
        (Gcs.Endpoint.members_of cluster.Cluster.nodes.(0).Cluster.endpoint
           group)
      = 3);
  (* Real times (in "minutes" past 8:00) at which each replica executes its
     three clock-related operations, from Figure 4:
       round 1: r1@10  r2@15  r3@25
       round 2: r1@40  r2@30  r3@35
       round 3: r1@60  r2@55  r3@50 *)
  let schedule = [| [ 10.; 40.; 60. ]; [ 15.; 30.; 55. ]; [ 25.; 35.; 50. ] |] in
  let base = Dsim.Engine.now eng in
  let at_minute m = Time.add base (Span.of_us (int_of_float (m *. minute))) in
  let rows = ref [] in
  let thread = Cts.Thread_id.of_int 1 in
  let done_count = ref 0 in
  Array.iteri
    (fun i times ->
      Dsim.Fiber.spawn eng (fun () ->
          List.iteri
            (fun k m ->
              let target = at_minute m in
              Dsim.Fiber.sleep eng (Time.diff target (Dsim.Engine.now eng));
              let pc = Clock.Hwclock.read cluster.Cluster.nodes.(i).Cluster.clock in
              let gc = Cts.Service.gettimeofday services.(i) ~thread in
              let offset = Cts.Service.offset services.(i) in
              let to_min t = float_of_int (Span.to_us (Time.diff t base)) /. minute in
              rows :=
                {
                  f4_round = k + 1;
                  f4_replica = i + 1;
                  f4_pc_min = to_min pc;
                  f4_gc_min = to_min gc;
                  f4_offset_min = float_of_int (Span.to_us offset) /. minute;
                }
                :: !rows)
            times;
          incr done_count))
    schedule;
  Cluster.run_until cluster (fun () -> !done_count = 3);
  List.sort
    (fun a b ->
      match compare a.f4_round b.f4_round with
      | 0 -> compare a.f4_replica b.f4_replica
      | c -> c)
    !rows

(* ------------------------------------------------------------------ *)
(* E7 — §5 extension: causality across groups                           *)

type causal_run = {
  independent_gap : Span.t;
  causal_ok : bool;
  monotone_after : bool;
}

let causal () =
  let group_a = Gcs.Group_id.of_int 10 and group_b = Gcs.Group_id.of_int 11 in
  let clock_config i =
    if i = 1 || i = 2 then
      { Clock.Hwclock.default_config with offset = Span.of_ms 500 }
    else Clock.Hwclock.default_config
  in
  let cluster = Cluster.create ~seed:1L ~clock_config ~nodes:5 () in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1; 2; 3; 4 ]);
  let mk_replicas group nodes =
    let config =
      { Repl.Replica.default_config with
        initial_members = List.map Nid.of_int nodes }
    in
    List.map
      (fun node ->
        Repl.Replica.create cluster.Cluster.eng
          ~endpoint:cluster.Cluster.nodes.(node).Cluster.endpoint ~group
          ~clock:cluster.Cluster.nodes.(node).Cluster.clock ~config
          ~app:(Apps.time_server cluster ~node ())
          ())
      nodes
  in
  let _ra = mk_replicas group_a [ 1; 2 ] and _rb = mk_replicas group_b [ 3; 4 ] in
  let client group my =
    Rpc.Client.create cluster.Cluster.eng
      ~endpoint:cluster.Cluster.nodes.(0).Cluster.endpoint
      ~my_group:(Gcs.Group_id.of_int my) ~server_group:group ()
  in
  let ca = client group_a 20 and cb = client group_b 21 in
  Cluster.run_until cluster (fun () ->
      let members g =
        List.length
          (Gcs.Endpoint.members_of cluster.Cluster.nodes.(0).Cluster.endpoint g)
      in
      members group_a = 2 && members group_b = 2);
  let read c =
    Time.of_ns (int_of_string (Rpc.Client.invoke c ~op:"gettimeofday" ~arg:""))
  in
  let gap = ref Span.zero and causal_ok = ref false and mono = ref false in
  let finished = ref false in
  Dsim.Fiber.spawn cluster.Cluster.eng (fun () ->
      let ta = read ca in
      let tb = read cb in
      gap := Time.diff ta tb;
      let ta2 = read ca in
      (match Rpc.Client.last_timestamp ca with
      | Some ts -> Rpc.Client.observe_timestamp cb ts
      | None -> ());
      let tb2 = read cb in
      causal_ok := Time.(tb2 >= ta2);
      let tb3 = read cb in
      mono := Time.(tb3 >= tb2);
      finished := true);
  Cluster.run_until ~limit:(Span.of_sec 60) cluster (fun () -> !finished);
  { independent_gap = !gap; causal_ok = !causal_ok; monotone_after = !mono }

(* ------------------------------------------------------------------ *)
(* A3 — recovery: adding a replica to a running group                  *)

type recovery_run = {
  pre_join_readings : int Array.t;
  joiner_initialized : bool;
  joiner_state_matches : bool;
  group_clock_monotone : bool;
}

let recovery ?(seed = 1L) ?(readings = 40) () =
  let replicas = 2 in
  let nodes = replicas + 2 in
  (* client on n0, bootstrap replicas on n1-n2, joiner on n3 *)
  let cluster =
    Cluster.create ~seed ~nodes ~bootstrap:(fun i -> i < 3) ()
  in
  List.iter (Cluster.start cluster) [ 0; 1; 2 ];
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1; 2 ]);
  let initial_members = [ Nid.of_int 1; Nid.of_int 2 ] in
  let config =
    { Repl.Replica.default_config with initial_members }
  in
  let make_replica ~recovering node =
    Repl.Replica.create cluster.Cluster.eng
      ~endpoint:cluster.Cluster.nodes.(node).Cluster.endpoint
      ~group:cluster.Cluster.server_group
      ~clock:cluster.Cluster.nodes.(node).Cluster.clock
      ~config:{ config with recovering }
      ~app:(Apps.time_server cluster ~node ())
      ()
  in
  let r1 = make_replica ~recovering:false 1 in
  let r2 = make_replica ~recovering:false 2 in
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
      = 2);
  let rig = { cluster; replicas = [ r1; r2 ]; client } in
  let monotone = ref true in
  let last = ref Time.epoch in
  let joiner = ref None in
  let pre_join = ref [||] in
  run_client rig (fun client ->
      let read () =
        let r = Rpc.Client.invoke client ~op:"uid" ~arg:"" in
        match String.split_on_char '.' r with
        | [ ns; _ ] ->
            let v = Time.of_ns (int_of_string ns) in
            if Time.(v < !last) then monotone := false;
            last := v
        | _ -> failwith "bad uid"
      in
      for _ = 1 to readings / 2 do
        read ()
      done;
      pre_join :=
        [| Repl.Replica.processed r1; Repl.Replica.processed r2 |];
      (* bring up the new replica mid-stream *)
      Cluster.start rig.cluster 3;
      joiner := Some (make_replica ~recovering:true 3);
      for _ = 1 to readings / 2 do
        read ()
      done;
      (* give the state transfer time to finish if it has not already *)
      Dsim.Fiber.sleep rig.cluster.Cluster.eng (Span.of_ms 50));
  let joiner = Option.get !joiner in
  {
    pre_join_readings = !pre_join;
    joiner_initialized =
      Cts.Service.initialized (Repl.Replica.service joiner)
      && Repl.Replica.recovered joiner;
    joiner_state_matches =
      Repl.Replica.snapshot joiner = Repl.Replica.snapshot r1;
    group_clock_monotone = !monotone;
  }
