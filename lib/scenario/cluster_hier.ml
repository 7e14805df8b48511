module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id

type replica = {
  id : Nid.t;
  shard : int;
  rank : int;
  endpoint : Gcs.Endpoint.t;
  clock : Clock.Hwclock.t;
  service : Cts.Service.t;
  gateway : Hier.Gateway.t;
  mutable crashed : bool;
  mutable boost : bool;
}

type t = {
  eng : Dsim.Engine.t;
  topo : Hier.Topology.t;
  shard_nets : Gcs.Endpoint.payload Totem.Wire.t Netsim.Network.t array;
  bridge : Hier.Bridge_msg.t Netsim.Network.t;
  replicas : replica array;
  group : Gcs.Group_id.t;
  mutable readers_stopped : bool;
  (* Event-driven formation tracking.  The old barriers re-evaluated an
     O(shards x shard_size^2) membership predicate after EVERY engine
     step — the dominant cost of large formations (238 s of the 1024-
     replica run).  Instead, membership events (ring views, blocked
     rings, group view changes, crashes) mark their shard dirty, and the
     barrier predicate re-evaluates the exact predicate only for dirty
     shards: same value at every step — the event hooks cover every
     mutation the predicate reads — so the barrier exits at the
     identical step, at O(1) per quiet step. *)
  form_dirty : bool array; (* per shard *)
  form_cache : bool array; (* last exact predicate value per shard *)
  mutable form_formed : int; (* number of [true] entries in form_cache *)
  mutable form_any_dirty : bool;
}

let reader_thread = Cts.Thread_id.of_int 1

let mark_dirty t s =
  if not t.form_dirty.(s) then begin
    t.form_dirty.(s) <- true;
    t.form_any_dirty <- true
  end

(* The CCS round issue period of every reader fiber; it must comfortably
   exceed a shard's token rotation time. *)
let reader_period = Span.of_ms 2

let create ?(seed = 1L) ?bridge_latency ?clock_config ?obs ~shards
    ~shard_size () =
  let topo = Hier.Topology.create ~shards ~shard_size in
  let eng = Dsim.Engine.create ~seed () in
  (match obs with Some s -> Dsim.Engine.set_obs eng s | None -> ());
  let shard_latency =
    Netsim.Latency.calibrated ~wire:Netsim.Latency.default_wire
  in
  let bridge_latency =
    match bridge_latency with
    | Some l -> l
    | None -> Netsim.Latency.wan ~wire:Netsim.Latency.default_wan_wire
  in
  let bridge =
    Netsim.Network.create eng
      { Netsim.Network.latency = bridge_latency; loss = 0. }
  in
  let shard_nets =
    Array.init shards (fun _ ->
        Netsim.Network.create eng
          { Netsim.Network.latency = shard_latency; loss = 0. })
  in
  let clock_config =
    match clock_config with
    | Some f -> f
    | None -> fun _ -> Clock.Hwclock.default_config
  in
  let group = Gcs.Group_id.of_int 1 in
  let make i =
    let id = Nid.of_int i in
    let shard = Hier.Topology.shard_of topo id in
    let endpoint =
      Gcs.Endpoint.create eng shard_nets.(shard) ~me:id ~bootstrap:true ()
    in
    let clock = Clock.Hwclock.create eng (clock_config i) in
    let service = Cts.Service.create eng ~endpoint ~group ~clock () in
    let gateway =
      Hier.Gateway.create eng bridge ~topology:topo ~shard ~me:id ~service
        ~clock
    in
    let r =
      {
        id;
        shard;
        rank = Hier.Topology.rank_of topo id;
        endpoint;
        clock;
        service;
        gateway;
        crashed = false;
        boost = false;
      }
    in
    Hier.Gateway.set_on_correction gateway (fun () -> r.boost <- true);
    r
  in
  let t =
    {
      eng;
      topo;
      shard_nets;
      bridge;
      replicas = Array.init (Hier.Topology.replicas topo) make;
      group;
      readers_stopped = false;
      form_dirty = Array.make shards true;
      form_cache = Array.make shards false;
      form_formed = 0;
      form_any_dirty = true;
    }
  in
  (* Every membership edge marks its shard dirty for the formation
     barriers; the hooks observe only. *)
  Array.iter
    (fun r ->
      let s = r.shard in
      Gcs.Endpoint.set_ring_view_hook r.endpoint
        (Some (fun ~ring:_ ~members:_ -> mark_dirty t s));
      Gcs.Endpoint.set_blocked_hook r.endpoint
        (Some (fun () -> mark_dirty t s)))
    t.replicas;
  t

(* ------------------------------------------------------------------ *)
(* Driving                                                             *)

let run_for t span =
  Dsim.Engine.run ~until:(Time.add (Dsim.Engine.now t.eng) span) t.eng

let run_until ?(limit = Span.of_sec 10) t pred =
  let deadline = Time.add (Dsim.Engine.now t.eng) limit in
  let rec go () =
    if pred () then ()
    else if Time.(Dsim.Engine.now t.eng > deadline) then
      failwith "Cluster_hier.run_until: time limit exceeded"
    else if not (Dsim.Engine.step t.eng) then
      failwith
        "Cluster_hier.run_until: event queue drained before predicate held"
    else go ()
  in
  go ()

let live_members t s =
  List.filter
    (fun id -> not t.replicas.(Nid.to_int id).crashed)
    (Hier.Topology.shard_members t.topo s)

(* Shard members and Totem's member lists are both ascending by id, so
   the ring is formed when each live member's list is exactly [expect]. *)
let ring_formed t s =
  let expect = live_members t s in
  List.for_all
    (fun id ->
      let tot = Gcs.Endpoint.totem t.replicas.(Nid.to_int id).endpoint in
      Totem.Node.is_operational tot
      && List.equal Nid.equal (Totem.Node.members tot) expect)
    expect

let shard_formed t s =
  let expect = live_members t s in
  ring_formed t s
  && List.for_all
       (fun id ->
         List.length
           (Gcs.Endpoint.members_of t.replicas.(Nid.to_int id).endpoint t.group)
         = List.length expect)
       expect

(* Barrier over the cached per-shard values: exact predicates re-run for
   dirty shards only, then one integer comparison.  [exact t s] must
   depend only on state whose every mutation marks shard [s] dirty (ring
   views, blocked rings, group view changes, crashes) — that makes the
   cached value equal to the polled value at every step, so the barrier
   exits at the identical step as the polling version it replaces. *)
let form_pred t exact () =
  let shards = Hier.Topology.shards t.topo in
  if t.form_any_dirty then begin
    let s = Dsim.Engine.obs t.eng in
    Obs.Sink.attr_enter s Obs.Attrib.Scenario_form_poll;
    for sh = 0 to shards - 1 do
      if t.form_dirty.(sh) then begin
        t.form_dirty.(sh) <- false;
        let v = exact t sh in
        if v <> t.form_cache.(sh) then begin
          t.form_cache.(sh) <- v;
          t.form_formed <- (t.form_formed + if v then 1 else -1)
        end
      end
    done;
    t.form_any_dirty <- false;
    Obs.Sink.attr_leave s
  end;
  t.form_formed = shards

let form_barrier t ~limit exact =
  (* Start from scratch: events before this barrier may predate the hook
     installation or concern the other phase's predicate. *)
  Array.fill t.form_dirty 0 (Array.length t.form_dirty) true;
  t.form_any_dirty <- true;
  run_until ~limit t (form_pred t exact)

let start_all t =
  Array.iter (fun r -> Gcs.Endpoint.start r.endpoint) t.replicas;
  (* Joins must go out on the stable shard ring: a join announced before
     the ring forms is flushed on the node's transient singleton ring and
     the resulting one-member group maps never reconcile. *)
  form_barrier t ~limit:(Span.of_sec 30) ring_formed;
  Array.iter
    (fun r ->
      let service = r.service and gateway = r.gateway in
      let shard = r.shard in
      Gcs.Endpoint.join_group r.endpoint t.group ~handler:(fun ev ->
          match ev with
          | Gcs.Endpoint.Deliver { msg; _ } ->
              Cts.Service.on_message service msg
          | Gcs.Endpoint.View_change v ->
              mark_dirty t shard;
              Cts.Service.on_view service v;
              Hier.Gateway.on_view gateway v
          | Gcs.Endpoint.Block | Gcs.Endpoint.Evicted -> mark_dirty t shard))
    t.replicas;
  form_barrier t ~limit:(Span.of_sec 30) shard_formed;
  (* The join storm is over: drop the queue capacity it grew to (about 55x
     what is pending at 24x24) so the world holds only live state. *)
  Dsim.Engine.trim t.eng

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)

let start_readers t =
  t.readers_stopped <- false;
  Array.iter
    (fun r ->
      Dsim.Fiber.spawn t.eng (fun () ->
          let reads = ref 0 in
          let rec loop () =
            if not (t.readers_stopped || r.crashed) then begin
              (* Sleep to the next common period boundary so every
                 replica of a shard opens the same CCS round in the same
                 window, as active replication of one client thread
                 would.  A boosted replica (its gateway just raised the
                 causal floor) skips the sleep: its early, floored
                 proposal for the next round reaches the other replicas
                 before they open it, so the whole shard adopts the
                 correction in one period. *)
              if r.boost then r.boost <- false
              else begin
                let now = Dsim.Engine.now t.eng in
                let next = Time.truncate_to reader_period now in
                let next = Time.add next reader_period in
                Dsim.Fiber.sleep t.eng (Time.diff next now)
              end;
              if not (t.readers_stopped || r.crashed) then begin
                let v =
                  Cts.Service.clock_read r.service ~thread:reader_thread
                    ~call:Cts.Call_type.Gettimeofday
                in
                incr reads;
                (* the application's read, which the check compares
                   across the shard's replicas round by round *)
                (let s = Dsim.Engine.obs t.eng in
                 if s.Obs.Sink.active then
                   Obs.Sink.rec_event s ~kind:Obs.Recorder.k_read
                     ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
                     ~node:(Nid.to_int r.id) ~a:(Time.to_ns v) ~b:!reads);
                loop ()
              end
            end
          in
          loop ()))
    t.replicas

let stop_readers t = t.readers_stopped <- true

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)

let crash t id =
  let r = t.replicas.(Nid.to_int id) in
  if not r.crashed then begin
    r.crashed <- true;
    (* the live-member set the formation predicates compare against just
       changed *)
    mark_dirty t r.shard;
    Hier.Gateway.crash r.gateway;
    Gcs.Endpoint.crash r.endpoint
  end

let gateway_of t s =
  match live_members t s with
  | [] -> None
  | members ->
      let votes =
        List.map
          (fun id -> Hier.Gateway.elected t.replicas.(Nid.to_int id).gateway)
          members
      in
      let agree =
        match votes with
        | [] -> None
        | v :: rest ->
            if List.for_all (Option.equal Nid.equal v) rest then v else None
      in
      agree

let crash_gateway t s =
  match gateway_of t s with
  | Some id ->
      crash t id;
      Some id
  | None -> None

let isolate_shard t s =
  let inside = Hier.Topology.shard_members t.topo s in
  let outside =
    List.concat
      (List.init (Hier.Topology.shards t.topo) (fun s' ->
           if s' = s then [] else Hier.Topology.shard_members t.topo s'))
  in
  Netsim.Network.partition t.bridge [ inside; outside ]

let heal_bridge t = Netsim.Network.heal t.bridge

(* ------------------------------------------------------------------ *)
(* Measurements                                                        *)

let estimate t id =
  let r = t.replicas.(Nid.to_int id) in
  Time.add (Clock.Hwclock.read r.clock) (Cts.Service.offset r.service)

let shard_estimates t =
  Array.init (Hier.Topology.shards t.topo) (fun s ->
      match live_members t s with
      | [] -> None
      | id :: _ -> Some (estimate t id))

let spread values =
  let lo = ref None and hi = ref None in
  Array.iter
    (function
      | None -> ()
      | Some v ->
          (match !lo with
          | Some l when Time.(l <= v) -> ()
          | _ -> lo := Some v);
          (match !hi with
          | Some h when Time.(h >= v) -> ()
          | _ -> hi := Some v))
    values;
  match (!lo, !hi) with
  | Some lo, Some hi -> Time.diff hi lo
  | _ -> Span.zero

let cross_shard_skew t = spread (shard_estimates t)

let queue_hwm t = Dsim.Engine.queue_high_water t.eng

let neighbor_skew t =
  let est = shard_estimates t in
  let n = Array.length est in
  let worst = ref Span.zero in
  for s = 0 to n - 1 do
    match (est.(s), est.((s + 1) mod n)) with
    | Some a, Some b when n > 1 ->
        let d = Span.abs (Time.diff a b) in
        if Span.(d > !worst) then worst := d
    | _ -> ()
  done;
  !worst

let converged t ~bound = Span.compare (cross_shard_skew t) bound <= 0

let sum_over_agents t f =
  Array.fold_left (fun acc r -> acc + f r.gateway) 0 t.replicas

let agreed_rounds t =
  sum_over_agents t (fun g -> (Hier.Gateway.stats g).Hier.Gateway.agreed_rounds)

let regressions t =
  sum_over_agents t (fun g -> Hier.Global_clock.regressions (Hier.Gateway.global g))

let ccs_rounds_completed t =
  Array.fold_left
    (fun acc r ->
      if r.crashed then acc
      else acc + (Cts.Service.stats r.service).Cts.Service.rounds_completed)
    0 t.replicas
