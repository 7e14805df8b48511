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

type info = {
  deviations : Schedule.t;
  steps : int;
  packets : int;
  ties : (int * int) list;
  fingerprint : int;
}

(* The fingerprint hashes every read [(replica, round, group clock)],
   replica by replica, each in completion order: [acc * p + n] folded over
   the sequence.  Each replica folds its own reads ([hash]) and keeps
   [p ^ length] ([scale]); chaining the replicas in index order gives
   the hash of the whole sequence. *)
let fingerprint_prime = 1_000_003

let fingerprint ~hash ~scale =
  let acc = ref 0 in
  Array.iteri (fun i h -> acc := (!acc * scale.(i)) + h) hash;
  !acc

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
(* Packet log: the netsim records of the world's stream                *)

let packet_log_len = 256

(* The last [packet_log_len] send / deliver / drop records, one line
   each, oldest first. *)
let pp_packets ppf r =
  let is_packet kind =
    kind = Obs.Recorder.k_send || kind = Obs.Recorder.k_deliver
    || kind = Obs.Recorder.k_drop
  in
  let total = ref 0 in
  Obs.Recorder.iter r (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
      if is_packet kind then incr total);
  let skip = ref (!total - packet_log_len) in
  let node n = Netsim.Node_id.of_int n in
  Obs.Recorder.iter r (fun ~kind ~ts_us ~node:n ~a ~b ->
      if is_packet kind then
        if !skip > 0 then decr skip
        else
          let at = Time.of_us ts_us in
          if kind = Obs.Recorder.k_send then
            if a < 0 then
              Format.fprintf ppf "%a %a -> *@." Time.pp at Netsim.Node_id.pp
                (node n)
            else
              Format.fprintf ppf "%a %a -> %a@." Time.pp at Netsim.Node_id.pp
                (node n) Netsim.Node_id.pp (node a)
          else if kind = Obs.Recorder.k_deliver then
            Format.fprintf ppf "%a %a => %a@." Time.pp at Netsim.Node_id.pp
              (node a) Netsim.Node_id.pp (node n)
          else
            Format.fprintf ppf "%a %a -x %a (%s)@." Time.pp at
              Netsim.Node_id.pp (node a) Netsim.Node_id.pp (node n)
              (Obs.Recorder.drop_reason_name b))

(* ------------------------------------------------------------------ *)
(* Measurement (the controlled part, driven by the spec)               *)

let measure ((cluster, services) : world) ~spec cfg =
  if cfg.rounds < 1 then invalid_arg "Mc.Harness.run: need >= 1 round";
  let eng = cluster.Cluster.eng in
  let net = cluster.Cluster.net in
  (* Adopt an external obs sink on this world's engine (a restored world
     rewinds the engine's sink with everything else, so the sink must be
     re-adopted per measurement); without one the world's own sink
     carries the run. *)
  (match cfg.sink with Some s -> Dsim.Engine.set_obs eng s | None -> ());
  let sink = Dsim.Engine.obs eng in
  (* Every measurement is judged by a fresh check on the sink's stream,
     and the packet log reads the sink's recorder, lent for this
     measurement only when the sink has none. *)
  let check = Obs.Check.create () in
  Obs.Sink.set_check sink (Some check);
  let packets, lent =
    if not cfg.record_packets then (None, false)
    else
      match Obs.Sink.recorder sink with
      | Some r -> (Some r, false)
      | None ->
          let r = Obs.Recorder.create () in
          Obs.Sink.set_recorder sink (Some r);
          (Some r, true)
  in
  (* Per-replica think-time streams, split in a fixed order before the
     controller is installed: a replica's stream does not depend on the
     schedule, so a replayed run draws identical delays. *)
  let rngs =
    Array.init cfg.replicas (fun _ -> Dsim.Rng.split (Dsim.Engine.rng eng))
  in
  let hash = Array.make cfg.replicas 0 in
  let scale = Array.make cfg.replicas 1 in
  let finished = ref 0 in
  let thread = Cts.Thread_id.of_int 1 in
  let ctrl = Controller.create eng spec in
  Controller.install ctrl net;
  Array.iteri
    (fun i (n : Cluster.node) ->
      Dsim.Fiber.spawn eng (fun () ->
          let service = services.(i) in
          let think =
            cfg.think_us + if i = 0 then 0 else cfg.straggle_us
          in
          let combine v =
            hash.(i) <- (hash.(i) * fingerprint_prime) + (v land max_int);
            scale.(i) <- scale.(i) * fingerprint_prime
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
               combine i;
               combine round;
               combine (Time.to_ns gc);
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
  Controller.uninstall ctrl net;
  Obs.Check.finish check;
  Obs.Sink.set_check sink None;
  if lent then Obs.Sink.set_recorder sink None;
  let packet_log =
    match packets with Some r -> Format.asprintf "%a" pp_packets r | None -> ""
  in
  let outcome =
    {
      Invariant.stats = Array.map Cts.Service.stats services;
      verdicts = Obs.Check.verdicts check;
      packet_log;
    }
  in
  let info =
    {
      deviations = Controller.applied ctrl;
      steps = Controller.steps ctrl;
      packets = Controller.packets ctrl;
      ties = Controller.tie_steps ctrl;
      fingerprint = fingerprint ~hash ~scale;
    }
  in
  (outcome, info)

let run ?(spec = Controller.default_spec) cfg =
  measure (build_world cfg) ~spec cfg

(* ------------------------------------------------------------------ *)
(* Harness reuse                                                       *)

(* The pristine post-startup world is seed-independent except for the RNG
   streams: startup uses a constant-latency, lossless network and
   jitterless clocks, so no stream is ever {e drawn} from before the
   measurement phase — construction only {e splits} the engine stream, in
   a fixed order (network first, then one clock per node).  [reset] relies
   on this: it rewinds the live world to its pristine snapshot and the
   streams to the states fresh construction under the new seed would have
   produced.  The invariant is verified once per world by replaying the
   split order against the freshly built world; on any mismatch the
   reusable falls back to fresh construction, trading speed for
   unconditional correctness. *)

type projection = { p_replicas : int; p_latency_us : int; p_skew : bool }

type reusable = {
  mutable diff : (world * Snap.t) option;
      (* live world + dirty-set snapshot.  [None] = the world holds state
         [Snap] cannot rewind (the probe said so): runs are fresh *)
  mutable proj : projection;
}

let projection cfg =
  {
    p_replicas = cfg.replicas;
    p_latency_us = cfg.latency_us;
    p_skew = cfg.skew_clocks;
  }

(* Check that the built world's streams are exactly those of the canonical
   split order under [cfg.seed] — i.e. that startup made no draws and no
   extra splits.  Any future component that draws or splits during startup
   makes this fail, which disables reuse instead of corrupting runs. *)
let split_order_holds cfg ((cluster, _) : world) =
  let scratch = Dsim.Rng.create cfg.seed in
  let expect () = Dsim.Rng.state (Dsim.Rng.split scratch) in
  Dsim.Rng.state (Netsim.Network.rng cluster.Cluster.net) = expect ()
  && Array.for_all
       (fun (n : Cluster.node) ->
         Dsim.Rng.state (Clock.Hwclock.rng n.Cluster.clock) = expect ())
       cluster.Cluster.nodes
  && Dsim.Rng.state (Dsim.Engine.rng cluster.Cluster.eng)
     = Dsim.Rng.state scratch

(* Rewind every pre-measurement stream to what fresh construction under
   [cfg.seed] would hold, replaying the canonical split order. *)
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

(* Diff-based reuse: keep ONE live world and rewind it between runs with
   [Snap.restore] instead of rebuilding it.  The snapshot layer cannot
   rewind every block (Bigarray RNG customs above all — those go through
   [reseed] — but also any mutable state it does not know how to walk),
   so a snapshot is only trusted after a verification probe: run a short
   measurement on the pristine world, restore + reseed, run it again, and
   demand bit-identical fingerprints.  A world whose restore is lossy
   fails the probe and drops to fresh construction; correctness never
   depends on [Snap] completeness. *)

let probe_cfg cfg =
  {
    cfg with
    rounds = 2;
    crash_at_round = None;
    bug = None;
    record_packets = false;
    sink = None;
  }

let make_diff cfg =
  (try
     let world = build_world cfg in
     if not (split_order_holds cfg world) then None
     else begin
       let snap = Snap.capture world in
       let pcfg = probe_cfg cfg in
       reseed world pcfg;
       let _, fresh = measure world ~spec:Controller.default_spec pcfg in
       ignore (Snap.restore snap : int);
       reseed world pcfg;
       let _, again = measure world ~spec:Controller.default_spec pcfg in
       if
         fresh.fingerprint = again.fingerprint
         && fresh.steps = again.steps
         && fresh.packets = again.packets
       then begin
         (* leave the world pristine for its first real run *)
         ignore (Snap.restore snap : int);
         Some (world, snap)
       end
       else None
     end
   with _ -> None)
  [@ctslint.allow
    "exn-swallow"
      "a world the snapshot layer cannot capture or replay only disables \
       the diff fast path; fresh construction is the result-identical \
       fallback"]

let reusable cfg = { diff = make_diff cfg; proj = projection cfg }
let reuse_mode r = match r.diff with Some _ -> `Diff | None -> `Fresh

let same_projection a b =
  (* Monomorphic on purpose: checked once per run. *)
  a.p_replicas = b.p_replicas
  && a.p_latency_us = b.p_latency_us
  && a.p_skew = b.p_skew

let reset r cfg =
  if not (same_projection (projection cfg) r.proj) then begin
    r.proj <- projection cfg;
    r.diff <- make_diff cfg
  end;
  r.diff <> None

let run_reused r ?(spec = Controller.default_spec) cfg =
  ignore (reset r cfg : bool);
  match r.diff with
  | Some (world, snap) ->
      ignore (Snap.restore snap : int);
      reseed world cfg;
      measure world ~spec cfg
  | None -> run ~spec cfg
