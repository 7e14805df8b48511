module Time = Dsim.Time
module Span = Dsim.Time.Span
module Cluster = Scenario.Cluster

type bug = Ignore_buffered_winner

type config = {
  replicas : int;
  rounds : int;
  seed : int64;
  think_us : int;
  straggle_us : int;
  jitter_us : int;
  latency_us : int;
  skew_clocks : bool;
  crash_at_round : int option;
  bug : bug option;
  record_packets : bool;
  sink : Obs.Sink.t option;
}

let default =
  {
    replicas = 3;
    rounds = 20;
    seed = 1L;
    think_us = 100;
    straggle_us = 0;
    jitter_us = 40;
    latency_us = 20;
    skew_clocks = true;
    crash_at_round = None;
    bug = None;
    record_packets = false;
    sink = None;
  }

type info = World.info = {
  deviations : Schedule.t;
  steps : int;
  packets : int;
  ties : (int * int) list;
  fingerprint : int;
}

(* ------------------------------------------------------------------ *)
(* World construction (the expensive part: ring formation + membership) *)

type world = Cluster.t * Cts.Service.t array

let build_world cfg : world =
  if cfg.replicas < 2 then invalid_arg "Mc.Harness.run: need >= 2 replicas";
  let clock_config i =
    if cfg.skew_clocks then
      {
        Clock.Hwclock.default_config with
        offset = Span.of_us (i * 500);
        drift_ppm = 3.0 *. float_of_int i;
      }
    else Clock.Hwclock.default_config
  in
  let cluster =
    Cluster.create ~seed:cfg.seed
      ~latency:(Netsim.Latency.Constant (Span.of_us cfg.latency_us))
      ~clock_config ~nodes:cfg.replicas ()
  in
  let eng = cluster.Cluster.eng in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:(List.init cfg.replicas Fun.id));
  let group = cluster.Cluster.server_group in
  let services =
    Array.map
      (fun (n : Cluster.node) ->
        let service =
          Cts.Service.create eng ~endpoint:n.Cluster.endpoint ~group
            ~clock:n.Cluster.clock ()
        in
        Gcs.Endpoint.join_group n.Cluster.endpoint group ~handler:(fun ev ->
            match ev with
            | Gcs.Endpoint.Deliver { msg; _ } ->
                Cts.Service.on_message service msg
            | Gcs.Endpoint.View_change v -> Cts.Service.on_view service v
            | Gcs.Endpoint.Block | Gcs.Endpoint.Evicted -> ());
        service)
      cluster.Cluster.nodes
  in
  Cluster.run_until cluster (fun () ->
      Array.for_all
        (fun (n : Cluster.node) ->
          List.length (Gcs.Endpoint.members_of n.Cluster.endpoint group)
          = cfg.replicas)
        cluster.Cluster.nodes);
  (cluster, services)

(* ------------------------------------------------------------------ *)
(* Measurement (the controlled part, driven by the spec)               *)

let measure ((cluster, services) : world) ~spec cfg =
  if cfg.rounds < 1 then invalid_arg "Mc.Harness.run: need >= 1 round";
  let eng = cluster.Cluster.eng in
  let net = cluster.Cluster.net in
  World.observe eng ~spec ~sink:cfg.sink ~packets:cfg.record_packets ~rings:[||]
  @@ fun ctrl ->
  (* Per-replica think-time streams, split in a fixed order before
     anything runs: a replica's stream does not depend on the schedule,
     so a replayed run draws identical delays. *)
  let rngs =
    Array.init cfg.replicas (fun _ -> Dsim.Rng.split (Dsim.Engine.rng eng))
  in
  let finished = ref 0 in
  let thread = Cts.Thread_id.of_int 1 in
  Controller.watch ctrl net;
  Array.iteri
    (fun i (n : Cluster.node) ->
      Dsim.Fiber.spawn eng (fun () ->
          let service = services.(i) in
          let think =
            cfg.think_us + if i = 0 then 0 else cfg.straggle_us
          in
          (try
             for round = 1 to cfg.rounds do
               let extra =
                 if cfg.jitter_us > 0 then
                   Dsim.Rng.int_range rngs.(i) 0 cfg.jitter_us
                 else 0
               in
               Dsim.Fiber.sleep eng (Span.of_us (think + extra));
               let pc = Clock.Hwclock.read n.Cluster.clock in
               let offset_before = Cts.Service.offset service in
               let suppressed_before =
                 (Cts.Service.stats service).Cts.Service.suppressed
               in
               let gc = Cts.Service.gettimeofday service ~thread in
               let suppressed_after =
                 (Cts.Service.stats service).Cts.Service.suppressed
               in
               let gc =
                 match cfg.bug with
                 | Some Ignore_buffered_winner
                   when i = 0 && suppressed_after > suppressed_before ->
                     (* Deliberately seeded reordering bug (test-only): when
                        the round's winning CCS message was already buffered
                        before the round opened (the duplicate-suppression
                        path), this replica keeps its own proposal instead
                        of adopting the buffered winner.  Only schedules
                        that delay this replica past the winner's delivery
                        expose it. *)
                     Time.add pc offset_before
                 | _ -> gc
               in
               (* The bug lives in the application, so the application
                  reports the value it uses. *)
               (let s = Dsim.Engine.obs eng in
                if s.Obs.Sink.active then
                  Obs.Sink.rec_event s ~kind:Obs.Recorder.k_read
                    ~ts_us:(Time.to_ns (Dsim.Engine.now eng) / 1000)
                    ~node:(Netsim.Node_id.to_int n.Cluster.id)
                    ~a:(Time.to_ns gc) ~b:round);
               match cfg.crash_at_round with
               | Some k when round = k && i = cfg.replicas - 1 ->
                   Gcs.Endpoint.crash n.Cluster.endpoint;
                   raise Exit
               | _ -> ()
             done
           with Exit -> ());
          incr finished))
    cluster.Cluster.nodes;
  Cluster.run_until ~limit:(Span.of_sec 600) cluster (fun () ->
      !finished = cfg.replicas);
  Controller.unwatch net;
  Array.map Cts.Service.stats services

(* ------------------------------------------------------------------ *)
(* Harness reuse                                                       *)

module Run = World.Make (struct
  type nonrec config = config
  type t = world

  let properties =
    [ "monotone"; "agreement"; "single-synchronizer"; "skew-envelope";
      "token-liveness"; "membership-agreement" ]

  let seed cfg = cfg.seed

  let prepare ?sink ~seed ~packets cfg =
    let sink = match sink with Some _ -> sink | None -> cfg.sink in
    { cfg with seed; record_packets = packets; sink }

  let build = build_world
  let measure = measure

  (* Monomorphic on purpose: checked once per run. *)
  let same_startup a b =
    a.replicas = b.replicas
    && a.latency_us = b.latency_us
    && a.skew_clocks = b.skew_clocks

  (* The pristine post-startup world is seed-independent except for the
     RNG streams: startup uses a constant-latency, lossless network and
     jitterless clocks, so it never draws from a stream, it only splits
     the engine's, in a fixed order (network first, then one clock per
     node).  This checks that the built world's streams are exactly
     those of that split order under [cfg.seed]: a future component that
     draws or splits during startup disables reuse instead of corrupting
     runs. *)
  let reseedable cfg ((cluster, _) : world) =
    let scratch = Dsim.Rng.create cfg.seed in
    let expect () = Dsim.Rng.state (Dsim.Rng.split scratch) in
    if
      Dsim.Rng.state (Netsim.Network.rng cluster.Cluster.net) = expect ()
      && Array.for_all
           (fun (n : Cluster.node) ->
             Dsim.Rng.state (Clock.Hwclock.rng n.Cluster.clock) = expect ())
           cluster.Cluster.nodes
      && Dsim.Rng.state (Dsim.Engine.rng cluster.Cluster.eng)
         = Dsim.Rng.state scratch
    then Ok ()
    else Error "startup drew from a random stream"

  (* Rewind every pre-measurement stream to what fresh construction
     under [cfg.seed] would hold, replaying the canonical split order. *)
  let reseed ((cluster, _) : world) cfg =
    let er = Dsim.Engine.rng cluster.Cluster.eng in
    Dsim.Rng.set_state er cfg.seed;
    Dsim.Rng.set_state
      (Netsim.Network.rng cluster.Cluster.net)
      (Dsim.Rng.state (Dsim.Rng.split er));
    Array.iter
      (fun (n : Cluster.node) ->
        Dsim.Rng.set_state
          (Clock.Hwclock.rng n.Cluster.clock)
          (Dsim.Rng.state (Dsim.Rng.split er)))
      cluster.Cluster.nodes

  let probe cfg =
    { cfg with rounds = 2; crash_at_round = None; bug = None;
      record_packets = false; sink = None }

  let rewind = Ok { World.same_startup; reseedable; reseed; probe }
end)

include (Run : World.RUN with type config := config)

let reuse_mode r = match reuse r with Ok () -> `Diff | Error _ -> `Fresh
