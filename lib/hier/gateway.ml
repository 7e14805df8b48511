let src = Logs.Src.create "hier" ~doc:"Hierarchical multi-ring bridge"

module Log = (val Logs.src_log src : Logs.LOG)
module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id

type mode = Star | Ring

type config = {
  mode : mode;
  period : Span.t;
  offer_timeout : Span.t;
  liveness_timeout : Span.t;
  max_correction : Span.t;
}

let default_config =
  {
    mode = Star;
    period = Span.of_us 2_000;
    (* > 2 WAN one-way trips: a Poll and its Offers must round-trip
       inside the window. *)
    offer_timeout = Span.of_us 900;
    (* > 3 periods, so one lost round does not depose a live coordinator. *)
    liveness_timeout = Span.of_us 6_500;
    max_correction = Span.of_ms 10;
  }

type stats = {
  elections : int;
  agreed_rounds : int;
  corrections : int;
  coordinated : int;
}

type t = {
  eng : Dsim.Engine.t;
  bridge : Bridge_msg.t Netsim.Network.t;
  topo : Topology.t;
  my_shard : int;
  me : Nid.t;
  service : Cts.Service.t;
  clock : Clock.Hwclock.t;
  cfg : config;
  gclock : Global_clock.t;
  last_heard : Time.t array; (* per shard; seeded with creation time *)
  mutable active : bool;
  mutable crashed : bool;
  mutable elected : Nid.t option;
  mutable gen : int; (* invalidates scheduled ticks across stints *)
  mutable round : int; (* highest bridge round seen or opened *)
  mutable offer_round : int; (* round I am currently collecting for *)
  mutable offers : Time.t; (* max-combined offers for [offer_round] *)
  mutable offers_n : int;
  mutable s_elections : int;
  mutable s_agreed : int;
  mutable s_corrections : int;
  mutable s_coordinated : int;
  mutable on_correction : unit -> unit;
}

let shard t = t.my_shard
let is_gateway t = t.active && not t.crashed
let elected t = t.elected
let global t = t.gclock

let estimate t =
  Time.add (Clock.Hwclock.read t.clock) (Cts.Service.offset t.service)

let stats t =
  {
    elections = t.s_elections;
    agreed_rounds = t.s_agreed;
    corrections = t.s_corrections;
    coordinated = t.s_coordinated;
  }

(* The value a gateway brings to a bridge round: its shard's group-clock
   estimate, floored at the last agreed global value so that agreement
   never regresses while any holder of that value is alive. *)
let offer_time t =
  match Global_clock.value t.gclock with
  | Some g -> Time.max g (estimate t)
  | None -> estimate t

(* ------------------------------------------------------------------ *)
(* Liveness and roles                                                  *)

let note_heard t shard =
  if shard <> t.my_shard then
    t.last_heard.(shard) <- Dsim.Engine.now t.eng

let shard_live t s =
  s = t.my_shard
  || Span.compare
       (Time.diff (Dsim.Engine.now t.eng) t.last_heard.(s))
       t.cfg.liveness_timeout
     <= 0

let coordinator_shard t =
  let rec go s = if shard_live t s then s else go (s + 1) in
  go 0 (* terminates: my own shard is always live *)

let i_coordinate t = t.active && coordinator_shard t = t.my_shard

(* Next live shard after mine in ring order (ring mode); [None] when I am
   the only live shard. *)
let next_live t =
  let n = Topology.shards t.topo in
  let rec go k =
    if k = n then None
    else
      let s = (t.my_shard + k) mod n in
      if shard_live t s then Some s else go (k + 1)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Obs probes                                                          *)

let probe t ~kind ~a ~b =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.active then
    Obs.Sink.rec_event s ~kind
      ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node:(Nid.to_int t.me) ~a ~b

(* ------------------------------------------------------------------ *)
(* Agreement                                                           *)

let apply_agree t ~round ~time =
  if round > t.round then t.round <- round;
  let adopted = Global_clock.observe t.gclock ~round ~time in
  t.s_agreed <- t.s_agreed + 1;
  probe t ~kind:Obs.Recorder.k_hier_round ~a:round ~b:0;
  let local = estimate t in
  if Time.(adopted > local) then begin
    (* Bounded forward correction: raise the shard's causal floor, at
       most [max_correction] past where the shard already is.  The floor
       lifts this gateway's next CCS proposals, and the shard adopts the
       corrected time the next round the gateway's message wins — clocks
       only ever move forward. *)
    let target = Time.min adopted (Time.add local t.cfg.max_correction) in
    Cts.Service.observe_timestamp t.service target;
    t.s_corrections <- t.s_corrections + 1;
    probe t ~kind:Obs.Recorder.k_hier_correct ~a:round
      ~b:(Span.to_us (Time.diff adopted local));
    t.on_correction ()
  end

(* ------------------------------------------------------------------ *)
(* Bridge rounds                                                       *)

let broadcast t msg = Netsim.Network.broadcast t.bridge ~src:t.me msg

let close_round t gen round () =
  if (not t.crashed) && t.active && gen = t.gen && t.offer_round = round
  then begin
    let time = Time.max t.offers (offer_time t) in
    t.offer_round <- -1;
    probe t ~kind:Obs.Recorder.k_bridge_close ~a:round ~b:t.offers_n;
    broadcast t (Bridge_msg.Agree { round; coord_shard = t.my_shard; time });
    apply_agree t ~round ~time
  end

let open_round t =
  t.round <- t.round + 1;
  t.s_coordinated <- t.s_coordinated + 1;
  let round = t.round in
  match t.cfg.mode with
  | Star ->
      t.offer_round <- round;
      t.offers <- offer_time t;
      t.offers_n <- 1;
      probe t ~kind:Obs.Recorder.k_bridge_open ~a:round ~b:0;
      broadcast t (Bridge_msg.Poll { round; coord_shard = t.my_shard });
      let gen = t.gen in
      Dsim.Engine.schedule t.eng t.cfg.offer_timeout (close_round t gen round)
  | Ring -> (
      let acc = offer_time t in
      match next_live t with
      | None ->
          (* Only shard standing: agree with myself. *)
          apply_agree t ~round ~time:acc
      | Some dst ->
          broadcast t
            (Bridge_msg.Collect
               {
                 round;
                 origin_shard = t.my_shard;
                 from_shard = t.my_shard;
                 dst_shard = dst;
                 acc;
               }))

let rec tick t gen () =
  if (not t.crashed) && t.active && gen = t.gen then begin
    let s = Dsim.Engine.obs t.eng in
    Obs.Sink.attr_enter s Obs.Attrib.Hier_tick;
    if i_coordinate t then open_round t;
    Dsim.Engine.schedule t.eng t.cfg.period (tick t gen);
    Obs.Sink.attr_leave s
  end

(* ------------------------------------------------------------------ *)
(* Bridge reception                                                    *)

let rec on_bridge t ~src msg =
  let s = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter s Obs.Attrib.Hier_bridge;
  on_bridge_inner t ~src msg;
  Obs.Sink.attr_leave s

and on_bridge_inner t ~src msg =
  if (not t.crashed) && t.active then begin
    (* Coordinator legitimacy is judged against liveness as it stood
       BEFORE this message: when a partition heals, the reunited side's
       in-flight [Agree] (carrying a value stale by the whole partition)
       arrives from a shard we still considered dead — it must not be
       applied.  The message still refreshes liveness below, so the
       sender's next full round (which polls everyone and max-combines)
       is accepted. *)
    let legit =
      match msg with
      | Bridge_msg.Agree { coord_shard; _ } ->
          coordinator_shard t = coord_shard
      | Bridge_msg.Poll _ | Bridge_msg.Offer _ | Bridge_msg.Collect _ ->
          true
    in
    note_heard t (Bridge_msg.sender_shard msg);
    let r = Bridge_msg.round msg in
    if r > t.round then t.round <- r;
    match msg with
    | Bridge_msg.Poll { round; coord_shard } ->
        (* A lower shard is coordinating, so my own open round (from a
           window when I thought it dead) must not close: its Agree would
           carry a value taken after my answer to this Poll, and the lower
           shard's newer round, max-combined from that earlier answer,
           would then arrive as a newer round with a lower value. *)
        if coord_shard < t.my_shard then t.offer_round <- -1;
        if coord_shard <> t.my_shard then
          (* The offer answers the poll, and only the poller consumes it —
             reply to the polling gateway instead of broadcasting, or the
             bridge costs O(shards^2) deliveries per round.  Non-
             coordinators consequently track liveness only of shards they
             still hear (the coordinator's polls and agrees); after a
             coordinator death each shard may transiently poll, and the
             competing polls re-seed everyone's liveness the same round. *)
          Netsim.Network.send t.bridge ~src:t.me ~dst:src
            (Bridge_msg.Offer { round; shard = t.my_shard; time = offer_time t })
    | Bridge_msg.Offer { round; time; _ } ->
        if t.offer_round = round then begin
          t.offers <- Time.max t.offers time;
          t.offers_n <- t.offers_n + 1
        end
    | Bridge_msg.Agree { round; time; coord_shard } ->
        if legit && coord_shard <> t.my_shard then apply_agree t ~round ~time
    | Bridge_msg.Collect { round; origin_shard; dst_shard; acc; _ } ->
        if dst_shard = t.my_shard then
          let acc = Time.max acc (offer_time t) in
          if origin_shard = t.my_shard then begin
            (* Token came home: agree. *)
            broadcast t
              (Bridge_msg.Agree
                 { round; coord_shard = t.my_shard; time = acc });
            apply_agree t ~round ~time:acc
          end
          else
            let dst =
              match next_live t with Some s -> s | None -> origin_shard
            in
            broadcast t
              (Bridge_msg.Collect
                 {
                   round;
                   origin_shard;
                   from_shard = t.my_shard;
                   dst_shard = dst;
                   acc;
                 })
  end

(* ------------------------------------------------------------------ *)
(* Election plumbing                                                   *)

let activate t =
  if (not t.active) && not t.crashed then begin
    t.active <- true;
    t.s_elections <- t.s_elections + 1;
    t.gen <- t.gen + 1;
    Netsim.Network.attach t.bridge t.me (on_bridge t);
    probe t ~kind:Obs.Recorder.k_hier_elect ~a:t.my_shard
      ~b:(Nid.to_int t.me);
    Log.debug (fun m ->
        m "%a: gateway of shard %d (election %d)" Nid.pp t.me t.my_shard
          t.s_elections);
    Dsim.Engine.schedule t.eng t.cfg.period (tick t t.gen)
  end

let resign t =
  if t.active then begin
    t.active <- false;
    t.gen <- t.gen + 1;
    t.offer_round <- -1;
    if Netsim.Network.attached t.bridge t.me then
      Netsim.Network.detach t.bridge t.me
  end

let on_view t (view : Gcs.View.t) =
  if not t.crashed then begin
    let members = Gcs.View.members_nodes view in
    let winner =
      if view.Gcs.View.primary then
        Dsim.Det.elect ~compare:Nid.compare members
      else None
    in
    t.elected <- winner;
    match winner with
    | Some w when Nid.equal w t.me -> activate t
    | Some _ | None -> resign t
  end

let crash t =
  if not t.crashed then begin
    resign t;
    t.crashed <- true;
    t.elected <- None
  end

let set_on_correction t f = t.on_correction <- f

let create eng bridge ~topology ~shard ~me ~service ~clock
    ?(config = default_config) () =
  if shard < 0 || shard >= Topology.shards topology then
    invalid_arg "Hier.Gateway.create: shard outside the topology";
  {
    eng;
    bridge;
    topo = topology;
    my_shard = shard;
    me;
    service;
    clock;
    cfg = config;
    gclock = Global_clock.create eng ~me;
    last_heard = Array.make (Topology.shards topology) (Dsim.Engine.now eng);
    active = false;
    crashed = false;
    elected = None;
    gen = 0;
    round = 0;
    offer_round = -1;
    offers = Time.epoch;
    offers_n = 0;
    s_elections = 0;
    s_agreed = 0;
    s_corrections = 0;
    s_coordinated = 0;
    on_correction = ignore;
  }
