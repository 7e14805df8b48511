module Nid = Netsim.Node_id
module IntSet = Stdlib.Set.Make (Int)

let src = Logs.Src.create "totem" ~doc:"Totem single-ring protocol"

module Log = (val Logs.src_log src : Logs.LOG)

type 'a event =
  | Deliver of {
      ring : Ring_id.t;
      seq : int;
      sender : Nid.t;
      payload : 'a;
    }
  | View of { ring : Ring_id.t; members : Nid.t list }
  | Blocked

type stats = {
  tokens_seen : int;
  msgs_sent : int;
  retransmits : int;
  views_installed : int;
  delivered : int;
}

type recovery_state = {
  commit : Wire.commit;
  my_rings : (Ring_id.t * (int * int)) list;
      (* the old rings this node must recover, with their ranges —
         computed once from the commit instead of re-derived (assoc +
         filter over [member_old]) on every offer/request/done *)
  ring_peers : (Ring_id.t * Nid.t list) list;
      (* members of each of [my_rings]'s old rings, same memoization *)
  offers : (Nid.t, (Ring_id.t * int list) list) Hashtbl.t;
  awaiting : Bits.countdown;
      (* committed members whose Recovery_done has not arrived yet; each
         done costs one bit test *)
  mutable my_done_sent : bool;
  mutable stashed_token : Wire.token option;
}

type state =
  | Idle
  | Operational
  | Gather of Gather.t
  | Wait_commit of Gather.t
  | Recover of recovery_state
  | Crashed

type 'a t = {
  eng : Dsim.Engine.t;
  net : 'a Wire.t Netsim.Network.t;
  me : Nid.t;
  cfg : Config.t;
  handler : 'a event -> unit;
  mutable state : state;
  mutable ring : Ring_id.t option;
      (* the ring this node last went operational on; flips only when a new
         ring's recovery completes, so joins always advertise the ring whose
         messages may still need recovering *)
  mutable members : Nid.t list;
  mutable succ : Nid.t;
      (* cached token successor on the current ring — [members] only
         changes when a ring is installed, so the per-visit linear scan
         is paid once per view instead of once per token *)
  mutable stores : 'a Store.t Ring_id.Map.t;
  mutable store_memo : (Ring_id.t * 'a Store.t) option;
      (* one-entry cache over [stores]: the hot path (token visits,
         regular receives) hits the same ring every time, and the map
         lookup is measurable there.  Invalidated when [stores] drops
         entries. *)
  pending : ('a * (unit -> bool) option) Queue.t;
      (* payload + optional cancellation predicate evaluated at broadcast
         time (the paper's token-level duplicate suppression) *)
  mutable max_gen : int;
  mutable epoch : int; (* bumped on state change; cancels stale timers *)
  mutable commit_round : int;
      (* bumped on each Gather -> Wait_commit transition; a commit timer
         armed for an earlier wait is stale *)
  mutable token_era : int; (* bumped per accepted token *)
  mutable token_deadline : Dsim.Time.t;
      (* the instant the token-loss watchdog declares a loss; every
         accepted token slides it forward by [token_loss_timeout] with a
         plain field write.  One self-re-arming watchdog timer per node
         chases the deadline instead of the previous
         one-timer-per-token-visit, so a visit queues no loss timer at
         all while losses are still detected at exactly
         last-visit + timeout. *)
  mutable watchdog_ep : int;
      (* epoch whose watchdog chain is live, [-1] when none — keeps
         re-installation from stacking a second chain *)
  mutable last_token_seq : int;
  mutable prev_visit_aru : int;
  mutable last_visit_count : int; (* fcc bookkeeping *)
  mutable stat_tokens : int;
  mutable stat_sent : int;
  mutable stat_retrans : int;
  mutable stat_views : int;
  mutable stat_delivered : int;
  mutable token_probe : (Wire.token -> unit) option;
  mutable out_buf : 'a Wire.t array;
      (* reusable per-visit send buffer: retransmits and fresh broadcasts
         accumulate here during [accept_token] and go out in one batched
         [broadcast_many], so a visit costs one queued event per peer
         rather than one per message *)
  mutable out_n : int;
}

let me t = t.me
let ring t = t.ring
let members t = t.members
let is_operational t = match t.state with Operational -> true | _ -> false
let pending t = Queue.length t.pending

let stats t =
  {
    tokens_seen = t.stat_tokens;
    msgs_sent = t.stat_sent;
    retransmits = t.stat_retrans;
    views_installed = t.stat_views;
    delivered = t.stat_delivered;
  }

let on_token t f = t.token_probe <- Some f

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

let crashed t = match t.state with Crashed -> true | _ -> false
let is_waiting_commit t = match t.state with Wait_commit _ -> true | _ -> false

let after t span f =
  let ep = t.epoch in
  Dsim.Engine.schedule t.eng span (fun () ->
      if (not (crashed t)) && t.epoch = ep then f ())

let after_token t span f =
  let ep = t.epoch and era = t.token_era in
  Dsim.Engine.schedule t.eng span (fun () ->
      if (not (crashed t)) && t.epoch = ep && t.token_era = era then f ())

let bcast t msg = Netsim.Network.broadcast t.net ~src:t.me msg

let out_push t msg =
  let cap = Array.length t.out_buf in
  if t.out_n = cap then begin
    let a = Array.make (if cap = 0 then 8 else 2 * cap) msg in
    Array.blit t.out_buf 0 a 0 t.out_n;
    t.out_buf <- a
  end;
  t.out_buf.(t.out_n) <- msg;
  t.out_n <- t.out_n + 1

let out_flush t =
  if t.out_n > 0 then begin
    Netsim.Network.broadcast_many t.net ~src:t.me t.out_buf ~n:t.out_n;
    (* Scrub so buffered messages do not outlive the visit. *)
    for i = 0 to t.out_n - 1 do
      t.out_buf.(i) <- Obj.magic 0
    done;
    t.out_n <- 0
  end

let store_for t ring =
  match t.store_memo with
  | Some (r, s) when Ring_id.equal r ring -> s
  | _ ->
      let s =
        match Ring_id.Map.find_opt ring t.stores with
        | Some s -> s
        | None ->
            let s = Store.create () in
            t.stores <- Ring_id.Map.add ring s t.stores;
            s
      in
      t.store_memo <- Some (ring, s);
      s

let known_store t ring = Ring_id.Map.find_opt ring t.stores

let my_old_ring_info t : Wire.old_ring_info =
  match t.ring with
  | None -> { old_ring = None; high_seq = 0; old_aru = 0 }
  | Some r ->
      let s = store_for t r in
      { old_ring = Some r; high_seq = Store.high_seq s; old_aru = Store.aru s }

(* Deliver the contiguous received-but-undelivered prefix of the current
   ring, up to [upto] when given (safe delivery withholds messages not yet
   known stable everywhere). *)
let drain_deliveries ?upto t =
  match (t.state, t.ring) with
  | Operational, Some r ->
      let s = store_for t r in
      let lim = match upto with Some u -> u | None -> max_int in
      let continue = ref true in
      while !continue do
        match Store.next_to_deliver s with
        | Some (msg : 'a Wire.regular) when msg.seq <= lim ->
            Store.set_delivered s msg.seq;
            t.stat_delivered <- t.stat_delivered + 1;
            t.handler
              (Deliver
                 {
                   ring = msg.ring;
                   seq = msg.seq;
                   sender = msg.sender;
                   payload = msg.payload;
                 })
        | _ -> continue := false
      done
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Gather / consensus                                                  *)

let make_join t g : Wire.join =
  {
    j_sender = t.me;
    proc_set = Gather.proc_set g;
    fail_set = Gather.fail_set g;
    j_old = my_old_ring_info t;
    max_gen = t.max_gen;
  }

(* Store this node's join for the current sets, as consensus compares
   every live candidate's latest join, its own included. *)
let record_join t g =
  let j = make_join t g in
  ignore (Gather.absorb g j : bool);
  j

let send_join t g = bcast t (Wire.Join (record_join t g))

let rec enter_gather t ~candidates ~prefail =
  t.epoch <- t.epoch + 1;
  let was_operational = is_operational t in
  let g =
    Gather.create ~me:t.me
      ~proc:(Bits.union candidates (Bits.of_list t.members))
      ~fail:prefail
  in
  t.state <- Gather g;
  (let s = Dsim.Engine.obs t.eng in
   if s.Obs.Sink.active then
     Obs.Sink.rec_event s ~kind:Obs.Recorder.k_gather
       ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
       ~node:(Nid.to_int t.me)
       ~a:(Bits.cardinal (Gather.proc_set g))
       ~b:0);
  if was_operational then t.handler Blocked;
  Log.debug (fun m ->
      m "%a: enter gather (candidates=%d)" Nid.pp t.me
        (Bits.cardinal (Gather.proc_set g)));
  send_join t g;
  join_tick t;
  arm_consensus_deadline t;
  maybe_consensus t g

(* The gather timers take the attempt from [t.state] rather than capturing
   it: every attempt starts a new epoch, so a timer that passes [after]'s
   epoch check is about the current one, and a finished attempt is not
   kept alive by timers still queued. *)
and join_tick t =
  after t t.cfg.join_retransmit (fun () ->
      match t.state with
      | Gather g | Wait_commit g ->
          send_join t g;
          join_tick t
      | _ -> ())

and arm_consensus_deadline t =
  after t t.cfg.consensus_timeout (fun () ->
      match t.state with
      | Gather g ->
          let silent = Gather.deadline g in
          if not (Bits.is_empty silent) then begin
            Log.debug (fun m ->
                m "%a: consensus timeout, failing %d silent candidates" Nid.pp
                  t.me (Bits.cardinal silent));
            Gather.fail g silent;
            send_join t g;
            maybe_consensus t g
          end;
          arm_consensus_deadline t
      | Wait_commit _ ->
          (* The commit timer covers this wait; keep the deadline running
             for when a grown join sends us back to Gather. *)
          arm_consensus_deadline t
      | _ -> ())

and maybe_consensus t g =
  if Gather.agreed g then
    let live = Gather.live g in
    if Nid.equal (Bits.min_elt live) t.me then begin
      (* This node is the representative: form and announce the new ring.
         [Bits.elements] is already ascending in [Nid.compare] order. *)
      let members_sorted = Bits.elements live in
      let gens =
        List.fold_left
          (fun acc p ->
            match Gather.find g p with
            | Some j -> Int.max acc j.max_gen
            | None -> acc)
          t.max_gen members_sorted
      in
      let new_ring = Ring_id.make ~rep:t.me ~gen:(gens + 1) in
      let member_old =
        List.map
          (fun p -> (p, (Option.get (Gather.find g p)).Wire.j_old))
          members_sorted
      in
      let recover =
        let per_ring = Hashtbl.create 4 in
        List.iter
          (fun ((_, (info : Wire.old_ring_info)) : Nid.t * Wire.old_ring_info) ->
            match info.old_ring with
            | None -> ()
            | Some r ->
                let lo, hi =
                  Option.value ~default:(max_int, 0)
                    (Hashtbl.find_opt per_ring r)
                in
                Hashtbl.replace per_ring r
                  (Int.min lo (info.old_aru + 1), Int.max hi info.high_seq))
          member_old;
        Dsim.Det.sorted_bindings ~compare:Ring_id.compare per_ring
        |> List.filter (fun (_, (lo, hi)) -> hi >= lo)
      in
      let c : Wire.commit =
        { new_ring; members = members_sorted; member_old; recover }
      in
      Log.debug (fun m ->
          m "%a: committing %a (%d members)" Nid.pp t.me Ring_id.pp new_ring
            (List.length members_sorted));
      bcast t (Wire.Commit c);
      install_ring t c
    end
    else if not (is_waiting_commit t) then begin
      (* Arm the commit timer once per wait: retransmitted joins keep
         re-confirming the agreement, and re-arming on each would defer a
         dead leader's timeout forever. *)
      t.commit_round <- t.commit_round + 1;
      let round = t.commit_round in
      t.state <- Wait_commit g;
      after t t.cfg.commit_timeout (fun () ->
          match t.state with
          | Wait_commit g when t.commit_round = round ->
              let live = Gather.live g in
              let leader = Bits.min_elt live in
              Log.debug (fun m ->
                  m "%a: commit timeout, failing leader %a" Nid.pp t.me Nid.pp
                    leader);
              enter_gather t ~candidates:live ~prefail:(Bits.singleton leader)
          | _ -> ())
    end

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

and my_recovery_rings t (c : Wire.commit) =
  (* The old rings whose leftover messages this node must recover: those it
     was a member of (exactly one in practice). *)
  match List.assoc_opt t.me c.member_old with
  | Some { old_ring = Some r; _ } ->
      List.filter (fun (r', _) -> Ring_id.equal r r') c.recover
  | Some { old_ring = None; _ } | None -> []

and ring_members_of (c : Wire.commit) r =
  List.filter_map
    (fun ((p, (info : Wire.old_ring_info)) : Nid.t * Wire.old_ring_info) ->
      match info.old_ring with
      | Some r' when Ring_id.equal r r' -> Some p
      | _ -> None)
    c.member_old

and send_offers t (rs : recovery_state) =
  let c = rs.commit in
  let mine =
    List.map
      (fun (r, (lo, hi)) ->
        let s = store_for t r in
        (r, Store.held_in s ~lo ~hi))
      rs.my_rings
  in
  Hashtbl.replace rs.offers t.me mine;
  List.iter
    (fun (r, held) ->
      bcast t
        (Wire.Recovery_offer
           { o_sender = t.me; new_ring = c.new_ring; o_ring = r; held }))
    mine

and union_held (rs : recovery_state) r =
  (* Set union is commutative, but folding in sorted node order anyway
     keeps the site inside the determinism contract for free. *)
  Dsim.Det.fold_sorted ~compare:Nid.compare
    (fun _ offer acc ->
      match List.assoc_opt r offer with
      | Some held -> List.fold_left (fun a s -> IntSet.add s a) acc held
      | None -> acc)
    rs.offers IntSet.empty

and request_missing t (rs : recovery_state) =
  let c = rs.commit in
  List.iter
    (fun (r, (lo, hi)) ->
      let s = store_for t r in
      let u = union_held rs r in
      let wanted =
        IntSet.elements
          (IntSet.filter
             (fun seq -> seq >= lo && seq <= hi && not (Store.has s seq))
             u)
      in
      if wanted <> [] then
        bcast t
          (Wire.Recovery_request
             { r_sender = t.me; new_ring = c.new_ring; r_ring = r; wanted }))
    rs.my_rings

and check_my_done t (rs : recovery_state) =
  let c = rs.commit in
  let ready =
    List.for_all
      (fun (r, (lo, hi)) ->
        let peers =
          match List.assoc_opt r rs.ring_peers with Some ps -> ps | None -> []
        in
        let have_offer p =
          match Hashtbl.find_opt rs.offers p with
          | Some offer -> List.mem_assoc r offer
          | None -> false
        in
        List.for_all have_offer peers
        &&
        let s = store_for t r in
        let u = union_held rs r in
        IntSet.for_all (fun seq -> seq < lo || seq > hi || Store.has s seq) u)
      rs.my_rings
  in
  if ready && not rs.my_done_sent then begin
    rs.my_done_sent <- true;
    Bits.strike rs.awaiting t.me;
    bcast t
      (Wire.Recovery_done { d_sender = t.me; new_ring = c.new_ring; nudge = false })
  end;
  maybe_finish_recovery t rs

and maybe_finish_recovery t (rs : recovery_state) =
  let c = rs.commit in
  if rs.my_done_sent && Bits.remaining rs.awaiting = 0 then begin
    (* Deliver the old ring's leftovers in sequence order, skipping gaps no
       surviving member can fill, then announce the new view.  Even when
       there was nothing to exchange (every member already held the same
       prefix, so the recovery range was empty), messages received since
       the last token visit are still undelivered and go up now. *)
    (match List.assoc_opt t.me c.member_old with
    | Some { old_ring = Some r; _ } ->
        let s = store_for t r in
        let hi =
          match List.assoc_opt r c.recover with
          | Some (_, hi) -> hi
          | None -> Store.aru s
        in
        for seq = Store.delivered s + 1 to hi do
          (match Store.find s seq with
          | Some (msg : 'a Wire.regular) ->
              t.stat_delivered <- t.stat_delivered + 1;
              t.handler
                (Deliver
                   {
                     ring = msg.ring;
                     seq = msg.seq;
                     sender = msg.sender;
                     payload = msg.payload;
                   })
          | None -> ());
          Store.set_delivered s seq
        done
    | Some { old_ring = None; _ } | None -> ());
    t.epoch <- t.epoch + 1;
    t.ring <- Some c.new_ring;
    t.members <- c.members;
    t.succ <- successor_of c.members t.me;
    t.state <- Operational;
    t.stat_views <- t.stat_views + 1;
    (let s = Dsim.Engine.obs t.eng in
     if s.Obs.Sink.active then
       Obs.Sink.rec_event s ~kind:Obs.Recorder.k_operational
         ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
         ~node:(Nid.to_int t.me) ~a:c.new_ring.gen
         ~b:
           (Obs.Recorder.operational_b ~members:(List.length c.members)
              ~rep:(Nid.to_int c.new_ring.rep)));
    (* Only the new ring's store remains relevant. *)
    t.stores <-
      Ring_id.Map.filter (fun r _ -> Ring_id.equal r c.new_ring) t.stores;
    t.store_memo <- None;
    t.handler (View { ring = c.new_ring; members = c.members });
    Log.debug (fun m ->
        m "%a: operational on %a" Nid.pp t.me Ring_id.pp c.new_ring);
    arm_token_loss t;
    if Nid.equal c.new_ring.rep t.me then presence_tick t;
    (* The representative launches the token; a token that arrived while we
       were still recovering is processed now. *)
    match rs.stashed_token with
    | Some tok -> accept_token t tok
    | None ->
        if Nid.equal c.new_ring.rep t.me then
          accept_token t
            {
              Wire.ring = c.new_ring;
              token_seq = 1;
              seq = 0;
              aru = 0;
              aru_id = None;
              rtr = [];
              fcc = 0;
            }
  end

and install_ring t (c : Wire.commit) =
  t.epoch <- t.epoch + 1;
  t.max_gen <- Int.max t.max_gen c.new_ring.gen;
  t.last_token_seq <- 0;
  t.prev_visit_aru <- 0;
  t.last_visit_count <- 0;
  ignore (store_for t c.new_ring : 'a Store.t);
  let my_rings = my_recovery_rings t c in
  let rs =
    {
      commit = c;
      my_rings;
      ring_peers = List.map (fun (r, _) -> (r, ring_members_of c r)) my_rings;
      offers = Hashtbl.create 8;
      awaiting = Bits.countdown c.members;
      my_done_sent = false;
      stashed_token = None;
    }
  in
  t.state <- Recover rs;
  send_offers t rs;
  recovery_tick t;
  after t t.cfg.recovery_timeout (fun () ->
      match t.state with
      | Recover _ ->
          Log.debug (fun m -> m "%a: recovery timeout" Nid.pp t.me);
          enter_gather t ~candidates:(Bits.of_list c.members)
            ~prefail:Bits.empty
      | _ -> ());
  check_my_done t rs

(* Like the gather timers, the recovery timers take the attempt from
   [t.state]: every attempt starts a new epoch ([install_ring]), and every
   way out of [Recover] bumps it, so a timer that passes [after]'s epoch
   check belongs to the current attempt. *)
and recovery_tick t =
  after t t.cfg.recovery_retry (fun () ->
      match t.state with
      | Recover rs ->
          send_offers t rs;
          request_missing t rs;
          if rs.my_done_sent then
            bcast t
              (Wire.Recovery_done
                 { d_sender = t.me; new_ring = rs.commit.new_ring; nudge = false });
          (* The representative re-announces the commit for members that
             missed it. *)
          if Nid.equal rs.commit.new_ring.rep t.me then
            bcast t (Wire.Commit rs.commit);
          recovery_tick t
      | _ -> ())

and presence_tick t =
  after t t.cfg.presence_interval (fun () ->
      match (t.state, t.ring) with
      | Operational, Some r when Nid.equal r.rep t.me ->
          bcast t (Wire.Presence { p_sender = t.me; p_ring = r });
          presence_tick t
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* Token handling                                                      *)

and arm_token_loss t =
  t.token_deadline <-
    Dsim.Time.add (Dsim.Engine.now t.eng) t.cfg.token_loss_timeout;
  if t.watchdog_ep <> t.epoch then begin
    t.watchdog_ep <- t.epoch;
    watchdog_step t t.epoch
  end

and watchdog_step t ep =
  (* Lazy chase: re-arm a full [token_loss_timeout] from now rather than
     at the slid deadline.  On a healthy ring the deadline moves every
     token visit, so chasing it exactly fires a check per rotation per
     node — at 1000 replicas that alone is ~30% of all queue events.
     The lazy chain fires once per timeout instead; the price is that a
     real loss is detected up to one extra timeout after the deadline
     (bounded, deterministic), which only shifts recovery onset, never
     outcomes. *)
  Dsim.Engine.schedule t.eng t.cfg.token_loss_timeout (fun () ->
      if (not (crashed t)) && t.epoch = ep then
        match t.state with
        | Operational ->
            if Dsim.Time.(Dsim.Engine.now t.eng >= t.token_deadline) then begin
              if t.watchdog_ep = ep then t.watchdog_ep <- -1;
              Log.debug (fun m -> m "%a: token loss" Nid.pp t.me);
              enter_gather t ~candidates:(Bits.of_list t.members)
                ~prefail:Bits.empty
            end
            else
              (* tokens arrived since this check was scheduled: the
                 deadline moved — keep watching *)
              watchdog_step t ep
        | _ -> if t.watchdog_ep = ep then t.watchdog_ep <- -1)

and successor_of members me =
  let rec find = function
    | [] -> List.hd members
    | p :: rest -> if Nid.compare p me > 0 then p else find rest
  in
  find members

and successor t = t.succ

and accept_token t (tok : Wire.token) =
  t.token_era <- t.token_era + 1;
  t.last_token_seq <- tok.token_seq;
  t.stat_tokens <- t.stat_tokens + 1;
  (let s = Dsim.Engine.obs t.eng in
   if s.Obs.Sink.active then
     Obs.Sink.rec_event s ~kind:Obs.Recorder.k_token
       ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
       ~node:(Nid.to_int t.me) ~a:tok.token_seq ~b:tok.aru);
  (match t.token_probe with Some f -> f tok | None -> ());
  let s =
    match t.ring with Some r -> store_for t r | None -> assert false
  in
  let prev_aru = t.prev_visit_aru in
  (* 0. Deliver the in-order prefix received since the last visit.  Doing
     this first (and broadcasting later in the same visit) means a message
     enqueued in reaction to a delivery goes out one rotation later, as in
     the paper's testbed ("one additional token circulation").  Safe
     delivery additionally withholds messages until the token has shown
     them received by every member (two-rotation stability). *)
  (match t.cfg.delivery with
  | Config.Agreed -> drain_deliveries t
  | Config.Safe -> drain_deliveries ~upto:(Int.min prev_aru tok.aru) t);
  (* 1. Retransmit requested messages that we hold. *)
  (* Fast path for the healthy ring: nothing requested and no local gaps
     means steps 1-2 are a no-op — skip the list traffic entirely. *)
  let n_satisfied =
    match tok.rtr with
    | [] when Store.aru s >= tok.seq -> 0
    | _ ->
        let satisfied, still_missing =
          List.partition (fun seq -> Store.find s seq <> None) tok.rtr
        in
        List.iter
          (fun seq ->
            match Store.find s seq with
            | Some msg ->
                t.stat_retrans <- t.stat_retrans + 1;
                out_push t (Wire.Regular msg)
            | None -> ())
          satisfied;
        (* 2. Add our own gaps to the retransmission list. *)
        let my_missing = Store.missing_up_to s tok.seq in
        let rtr =
          List.sort_uniq Int.compare (List.rev_append my_missing still_missing)
        in
        tok.rtr <- rtr;
        List.length satisfied
  in
  (* 3. Broadcast pending messages under flow control. *)
  let budget =
    Int.min t.cfg.max_msgs_per_visit (Int.max 0 (t.cfg.window - tok.fcc))
  in
  let sent = ref 0 in
  while !sent < budget && not (Queue.is_empty t.pending) do
    let payload, unless = Queue.pop t.pending in
    let cancelled = match unless with Some p -> p () | None -> false in
    if not cancelled then begin
      tok.seq <- tok.seq + 1;
      let msg : 'a Wire.regular =
        { ring = tok.ring; seq = tok.seq; sender = t.me; payload }
      in
      ignore (Store.add s msg : bool);
      t.stat_sent <- t.stat_sent + 1;
      out_push t (Wire.Regular msg);
      incr sent
    end
  done;
  (* Retransmits then fresh messages, in push order, one batch per peer. *)
  out_flush t;
  tok.fcc <- Int.max 0 (tok.fcc + !sent - t.last_visit_count);
  t.last_visit_count <- !sent;
  (* 4. Update the all-received-up-to field (Totem's rule: the owner of the
     lowered aru — or anybody, when it is unowned — raises it to its local
     aru; everyone else may only lower it). *)
  let my_aru = Store.aru s in
  (match tok.aru_id with
  | Some id when Nid.equal id t.me ->
      tok.aru <- my_aru;
      tok.aru_id <- (if my_aru < tok.seq then Some t.me else None)
  | None ->
      tok.aru <- my_aru;
      if my_aru < tok.seq then tok.aru_id <- Some t.me
  | Some _ ->
      if my_aru < tok.aru then begin
        tok.aru <- my_aru;
        tok.aru_id <- Some t.me
      end);
  (* 5. Garbage-collect messages that have been stable for a rotation. *)
  let stable = Int.min t.prev_visit_aru tok.aru in
  let deliverable = Store.delivered s in
  if stable > 0 && stable <= deliverable then Store.gc s ~upto:stable;
  t.prev_visit_aru <- tok.aru;
  (* 6. Deliver anything that became in-order during this visit (own
     broadcasts and retransmissions we just stored). *)
  (match t.cfg.delivery with
  | Config.Agreed -> drain_deliveries t
  | Config.Safe -> drain_deliveries ~upto:(Int.min prev_aru tok.aru) t);
  (* 7. Forward after the processing hold time.  The hold is a
     deterministic delay, so the send is committed now with the hold
     folded into the network delay instead of parked in a timer event —
     one queue event per hop instead of two.  [tok] is exclusively ours
     once accepted and this visit was its last mutation, so it is handed
     to the network directly; a copy is minted only if a retransmission
     master turns out to be needed (drop path). *)
  let work = !sent + n_satisfied in
  let hold =
    Dsim.Time.Span.add t.cfg.token_hold
      (Dsim.Time.Span.scale (float_of_int work) t.cfg.per_msg_cost)
  in
  tok.token_seq <- tok.token_seq + 1;
  let dst = successor t in
  let queued =
    Netsim.Network.send_tracked_after t.net ~delay:hold ~src:t.me ~dst
      (Wire.Token tok)
  in
  (* Arm the hop-recovery timer only when the simulated network actually
     dropped the send: a delivered token makes our retransmission
     redundant by construction (the successor's next token bumps our era
     before the timer matters), so the common lossless path schedules no
     timer at all.  An unconditional arm would also fire spuriously on
     rings whose rotation time exceeds [token_retransmit], flooding large
     rings with stale duplicate tokens. *)
  if not queued then
    arm_token_retransmit t ~delay:(Dsim.Time.Span.add hold t.cfg.token_retransmit)
      ~dst tok;
  arm_token_loss t

and arm_token_retransmit t ~delay ~dst out =
  after_token t delay (fun () ->
      if is_operational t then begin
        Log.debug (fun m -> m "%a: retransmitting token" Nid.pp t.me);
        let queued =
          Netsim.Network.send_tracked t.net ~src:t.me ~dst
            (Wire.Token (Wire.copy_token out))
        in
        ignore (queued : bool);
        arm_token_retransmit t ~delay:t.cfg.token_retransmit ~dst out
      end)

and handle_incoming_token t (tok : Wire.token) =
  match t.state with
  | Operational -> (
      match t.ring with
      | Some r when Ring_id.equal r tok.ring ->
          if tok.token_seq > t.last_token_seq then accept_token t tok
      | _ -> ())
  | Recover rs ->
      if
        Ring_id.equal rs.commit.new_ring tok.ring
        && tok.token_seq > t.last_token_seq
      then rs.stashed_token <- Some tok
  | Idle | Gather _ | Wait_commit _ | Crashed -> ()

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)

and on_regular t (msg : 'a Wire.regular) =
  let relevant =
    match t.ring with
    | Some r when Ring_id.equal r msg.ring -> true
    | _ -> known_store t msg.ring <> None
  in
  (* Foreign traffic from a node outside our ring means a healed partition:
     start a merge. *)
  (if (not relevant) && is_operational t then
     let foreign = not (List.exists (Nid.equal msg.sender) t.members) in
     if foreign then
       enter_gather t ~candidates:(Bits.singleton msg.sender)
         ~prefail:Bits.empty);
  if relevant then begin
    let s = store_for t msg.ring in
    let fresh = Store.add s msg in
    (* Delivery is token-driven (messages are handed up at token visits,
       as in Totem): receiving a regular message only stores it. *)
    if fresh then
      match t.state with
      | Recover rs -> check_my_done t rs
      | _ -> ()
  end

and on_join t (j : Wire.join) =
  t.max_gen <- Int.max t.max_gen j.max_gen;
  match t.state with
  | Crashed | Idle -> ()
  | Gather g | Wait_commit g ->
      if Gather.absorb g j then begin
        (match t.state with
        | Wait_commit _ -> t.state <- Gather g
        | _ -> ());
        (* No send here: the next [join_tick] carries the grown sets.
           Totem needs only the latest sets to reach everyone, and a send
           per change made each gather cost O(n^2) broadcasts. *)
        ignore (record_join t g : Wire.join)
      end;
      maybe_consensus t g
  | Recover _ ->
      (* Finish the recovery in progress first; the joiner keeps
         re-announcing itself and is handled once we are operational. *)
      ()
  | Operational ->
      (* Ignore stale joins left over from the gather that formed the
         current ring; react to anything genuinely new. *)
      let my_gen = match t.ring with Some r -> r.gen | None -> 0 in
      let is_member = List.exists (Nid.equal j.j_sender) t.members in
      if (not is_member) || j.max_gen >= my_gen then
        enter_gather t
          ~candidates:(Bits.add j.j_sender j.proc_set)
          ~prefail:Bits.empty

and on_commit t (c : Wire.commit) =
  if List.exists (Nid.equal t.me) c.members then
    match t.state with
    | Crashed | Idle -> ()
    | Recover rs when Ring_id.equal rs.commit.new_ring c.new_ring ->
        () (* duplicate of the commit we are already recovering for *)
    | Operational when Ring_id.equal (Option.get t.ring) c.new_ring -> ()
    | Gather _ | Wait_commit _ | Recover _ | Operational ->
        let my_gen = match t.ring with Some r -> r.gen | None -> 0 in
        if c.new_ring.gen > my_gen then install_ring t c

and on_offer t ~o_sender ~new_ring ~o_ring ~held =
  match t.state with
  | Recover rs when Ring_id.equal rs.commit.new_ring new_ring ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt rs.offers o_sender)
      in
      let prev = List.remove_assoc o_ring prev in
      Hashtbl.replace rs.offers o_sender ((o_ring, held) :: prev);
      check_my_done t rs
  | Operational -> resend_recovery_help t ~new_ring
  | _ -> ()

and on_request t ~new_ring ~r_ring ~wanted =
  (* Serve requests whenever we hold the messages, even if our own recovery
     has already completed. *)
  let serve () =
    match known_store t r_ring with
    | None -> ()
    | Some s ->
        List.iter
          (fun seq ->
            match Store.find s seq with
            | Some msg ->
                t.stat_retrans <- t.stat_retrans + 1;
                bcast t (Wire.Regular msg)
            | None -> ())
          wanted
  in
  match t.state with
  | Recover rs when Ring_id.equal rs.commit.new_ring new_ring -> serve ()
  | Operational ->
      serve ();
      resend_recovery_help t ~new_ring
  | _ -> ()

and resend_recovery_help t ~new_ring =
  (* A straggler is still recovering on our ring: it may have missed our
     Recovery_done (we completed first).  Re-announce it as a nudge, which
     operational nodes ignore, so two operational nodes cannot echo dones
     at each other forever. *)
  match t.ring with
  | Some r when Ring_id.equal r new_ring ->
      bcast t (Wire.Recovery_done { d_sender = t.me; new_ring; nudge = true })
  | _ -> ()

and on_done t ~d_sender ~new_ring ~nudge =
  match t.state with
  | Recover rs when Ring_id.equal rs.commit.new_ring new_ring ->
      Bits.strike rs.awaiting d_sender;
      maybe_finish_recovery t rs
  | Operational ->
      (* A genuine (non-nudge) done means its sender is still recovering on
         our ring and may have missed our own done; re-announce it. *)
      if (not nudge) && not (Nid.equal d_sender t.me) then
        resend_recovery_help t ~new_ring
  | _ -> ()

and on_presence t ~p_sender ~p_ring =
  match (t.state, t.ring) with
  | Operational, Some r when not (Ring_id.equal r p_ring) ->
      Log.debug (fun m ->
          m "%a: foreign presence from %a, merging" Nid.pp t.me Nid.pp p_sender);
      enter_gather t ~candidates:(Bits.singleton p_sender) ~prefail:Bits.empty
  | _ -> ()

(* Wall-time attribution: token visits, data receives and each kind of
   membership/recovery message get their own site — they answer different
   scale-out questions (steady-state cost vs which phase of formation
   churn), and the per-kind split is what exposed the join-storm cost at
   1000 replicas. *)
let dispatch t ~src:_ (msg : 'a Wire.t) =
  if not (crashed t) then begin
    let s = Dsim.Engine.obs t.eng in
    match msg with
    | Wire.Regular r ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_regular;
        on_regular t r;
        Obs.Sink.attr_leave s
    | Wire.Token tok ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_token;
        handle_incoming_token t tok;
        Obs.Sink.attr_leave s
    | Wire.Join j ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_join;
        on_join t j;
        Obs.Sink.attr_leave s
    | Wire.Commit c ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_commit;
        on_commit t c;
        Obs.Sink.attr_leave s
    | Wire.Recovery_offer { o_sender; new_ring; o_ring; held } ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_offer;
        on_offer t ~o_sender ~new_ring ~o_ring ~held;
        Obs.Sink.attr_leave s
    | Wire.Recovery_request { r_sender = _; new_ring; r_ring; wanted } ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_request;
        on_request t ~new_ring ~r_ring ~wanted;
        Obs.Sink.attr_leave s
    | Wire.Recovery_done { d_sender; new_ring; nudge } ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_done;
        on_done t ~d_sender ~new_ring ~nudge;
        Obs.Sink.attr_leave s
    | Wire.Presence { p_sender; p_ring } ->
        Obs.Sink.attr_enter s Obs.Attrib.Totem_presence;
        on_presence t ~p_sender ~p_ring;
        Obs.Sink.attr_leave s
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create eng net ~me ?(config = Config.default) ~handler () =
  let t =
    {
      eng;
      net;
      me;
      cfg = config;
      handler;
      state = Idle;
      ring = None;
      members = [];
      succ = me;
      stores = Ring_id.Map.empty;
      store_memo = None;
      pending = Queue.create ();
      max_gen = 0;
      epoch = 0;
      commit_round = 0;
      token_era = 0;
      token_deadline = Dsim.Time.epoch;
      watchdog_ep = -1;
      last_token_seq = 0;
      prev_visit_aru = 0;
      last_visit_count = 0;
      stat_tokens = 0;
      stat_sent = 0;
      stat_retrans = 0;
      stat_views = 0;
      stat_delivered = 0;
      token_probe = None;
      out_buf = [||];
      out_n = 0;
    }
  in
  Netsim.Network.attach net me (fun ~src msg -> dispatch t ~src msg);
  t

let start t =
  match t.state with
  | Idle -> enter_gather t ~candidates:Bits.empty ~prefail:Bits.empty
  | _ -> invalid_arg "Totem.Node.start: already started"

let multicast ?unless t payload =
  if crashed t then invalid_arg "Totem.Node.multicast: node crashed";
  Queue.push (payload, unless) t.pending

let crash t =
  if not (crashed t) then begin
    t.epoch <- t.epoch + 1;
    t.state <- Crashed;
    Netsim.Network.detach t.net t.me;
    let s = Dsim.Engine.obs t.eng in
    if s.Obs.Sink.active then
      Obs.Sink.rec_event s ~kind:Obs.Recorder.k_crash
        ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
        ~node:(Nid.to_int t.me) ~a:0 ~b:0
  end
