let src = Logs.Src.create "cts" ~doc:"Consistent time service"

module Log = (val Logs.src_log src : Logs.LOG)
module Time = Dsim.Time
module Span = Dsim.Time.Span

type mode = Active | Primary_backup

type config = {
  mode : mode;
  drift : Drift.t;
  offset_tracking : bool;
  recovering : bool;
}

let default_config =
  {
    mode = Active;
    drift = Drift.No_compensation;
    offset_tracking = true;
    recovering = false;
  }

type stats = {
  rounds_completed : int;
  ccs_sent : int;
  ccs_received : int;
  suppressed : int;
  rollbacks : int;
  max_rollback : Span.t;
  last_value : Time.t option;
}

type t = {
  eng : Dsim.Engine.t;
  endpoint : Gcs.Endpoint.t;
  group : Gcs.Group_id.t;
  clock : Clock.Hwclock.t;
  cfg : config;
  mutable offset : Span.t; (* my_clock_offset *)
  handlers : (int, Ccs_handler.t) Hashtbl.t; (* keyed by thread id *)
  mutable handler_memo : (int * Ccs_handler.t) option;
      (* one-entry cache over [handlers]: replicas read the clock from one
         thread, and the table lookup is on the per-round and per-message
         paths.  Handlers are never removed, so the memo cannot go stale. *)
  common_buffer : (int, Ccs_msg.payload Queue.t) Hashtbl.t;
      (* my_common_input_buffer: CCS messages for threads not yet created *)
  mutable view : Gcs.View.t option;
  mutable init : bool;
  mutable last_recovery_round : int;
  mutable floor : Time.t option; (* causal lower bound from other groups *)
  (* statistics *)
  mutable s_rounds : int;
  mutable s_sent : int;
  mutable s_received : int;
  mutable s_suppressed : int;
  mutable s_rollbacks : int;
  mutable s_max_rollback : Span.t;
  mutable s_last_value : Time.t option;
  mutable last_per_thread : int array;
      (* last raw group-clock reading per thread id, in ns;
         [no_reading] = none yet.  Thread ids are small dense ints. *)
}

let no_reading = min_int

let create eng ~endpoint ~group ~clock ?(config = default_config) () =
  {
    eng;
    endpoint;
    group;
    clock;
    cfg = config;
    offset = Span.zero;
    handlers = Hashtbl.create 8;
    handler_memo = None;
    common_buffer = Hashtbl.create 8;
    view = None;
    init = not config.recovering;
    last_recovery_round = 0;
    floor = None;
    s_rounds = 0;
    s_sent = 0;
    s_received = 0;
    s_suppressed = 0;
    s_rollbacks = 0;
    s_max_rollback = Span.zero;
    s_last_value = None;
    last_per_thread = [||];
  }

let group t = t.group
let me t = Gcs.Endpoint.me t.endpoint
let offset t = t.offset
let initialized t = t.init

let observe_timestamp t ts =
  match t.floor with
  | Some f when Time.(f >= ts) -> ()
  | Some _ | None -> t.floor <- Some ts

let last_reading t = t.s_last_value

let stats t =
  {
    rounds_completed = t.s_rounds;
    ccs_sent = t.s_sent;
    ccs_received = t.s_received;
    suppressed = t.s_suppressed;
    rollbacks = t.s_rollbacks;
    max_rollback = t.s_max_rollback;
    last_value = t.s_last_value;
  }

let reset_stats t =
  t.s_rounds <- 0;
  t.s_sent <- 0;
  t.s_received <- 0;
  t.s_suppressed <- 0;
  t.s_rollbacks <- 0;
  t.s_max_rollback <- Span.zero

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

let i_am_primary t =
  match t.view with
  | None -> true (* no view yet: degenerate single-replica bootstrap *)
  | Some v -> (
      match v.Gcs.View.members with
      | (n, _) :: _ -> Netsim.Node_id.equal n (me t)
      | [] -> true)

let may_send t =
  match t.cfg.mode with Active -> true | Primary_backup -> i_am_primary t

let find_handler t key =
  match t.handler_memo with
  | Some (k, h) when k = key -> Some h
  | _ -> (
      match Hashtbl.find_opt t.handlers key with
      | Some h as r ->
          t.handler_memo <- Some (key, h);
          r
      | None -> None)

(* Obs probe: a CCS send suppressed by duplicate detection (token-level
   or handler-level).  [round < 0] when the round is not known at the
   suppression site. *)
let probe_suppress t round =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.active then
    Obs.Sink.rec_event s ~kind:Obs.Recorder.k_ccs_suppress
      ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node:(Netsim.Node_id.to_int (me t))
      ~a:round ~b:0

let send_ccs t payload =
  if may_send t then begin
    t.s_sent <- t.s_sent + 1;
    (let s = Dsim.Engine.obs t.eng in
     if s.Obs.Sink.active then
       Obs.Sink.rec_event s ~kind:Obs.Recorder.k_ccs_propose
         ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
         ~node:(Netsim.Node_id.to_int (me t))
         ~a:payload.Ccs_msg.round
         ~b:(Time.to_ns payload.Ccs_msg.proposal));
    (* Token-level duplicate suppression (§4.3): if the winner's CCS message
       for this round is delivered before the token reaches us, the queued
       message is discarded instead of multicast. *)
    let unless () =
      let stale =
        match find_handler t (Thread_id.to_int payload.Ccs_msg.thread) with
        | Some h -> Ccs_handler.round_settled h payload.Ccs_msg.round
        | None -> false
      in
      if stale then begin
        t.s_sent <- t.s_sent - 1;
        t.s_suppressed <- t.s_suppressed + 1;
        probe_suppress t payload.Ccs_msg.round
      end;
      stale
    in
    Gcs.Endpoint.multicast ~unless t.endpoint
      (Ccs_msg.make ~group:t.group payload)
  end
  else begin
    t.s_suppressed <- t.s_suppressed + 1;
    probe_suppress t payload.Ccs_msg.round
  end

let handler_for t thread =
  let key = Thread_id.to_int thread in
  match find_handler t key with
  | Some h -> h
  | None ->
      let h =
        Ccs_handler.create t.eng ~thread ~send:(send_ccs t)
          ~on_suppress:(fun () ->
            t.s_suppressed <- t.s_suppressed + 1;
            probe_suppress t (-1))
          ()
      in
      Hashtbl.replace t.handlers key h;
      (* Move any CCS messages that arrived before the thread existed from
         the common input buffer to the thread's own buffer (Fig. 2 line
         10). *)
      (match Hashtbl.find_opt t.common_buffer key with
      | Some q ->
          Queue.iter (Ccs_handler.recv h) q;
          Hashtbl.remove t.common_buffer key
      | None -> ());
      h

(* ------------------------------------------------------------------ *)
(* Reception (Figure 3)                                                *)

let adopt_recovery_sync t (p : Ccs_msg.payload) =
  (* The recovering replica does not compete in the special round; on
     receiving its CCS message it performs a clock-related operation and
     adjusts its offset according to the group clock (§3.2). *)
  if p.round > t.last_recovery_round then begin
    t.last_recovery_round <- p.round;
    if not t.init then begin
      let pc = Clock.Hwclock.read t.clock in
      t.offset <- Time.diff p.proposal pc;
      t.init <- true;
      (* The adopted round is consumed: future special rounds continue from
         here. *)
      let h = handler_for t Thread_id.recovery in
      Ccs_handler.recv h p;
      Ccs_handler.advance_to h ~round:p.round;
      Log.debug (fun m ->
          m "%a: clock initialized from special round %d (offset %a)"
            Netsim.Node_id.pp (me t) p.round Span.pp t.offset)
    end
  end

(* Wall-time attribution of CCS message reception.  [clock_read] is NOT
   bracketed: it suspends on a fiber condition mid-call, and an attribution
   region must stay within one engine callback. *)
let on_message t (msg : Gcs.Msg.t) =
  let sink = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter sink Obs.Attrib.Ccs_on_message;
  (match Ccs_msg.of_msg msg with
  | None -> ()
  | Some p -> (
      t.s_received <- t.s_received + 1;
      if Thread_id.equal p.thread Thread_id.recovery && not t.init then
        adopt_recovery_sync t p
      else
        let key = Thread_id.to_int p.thread in
        match find_handler t key with
        | Some h ->
            (* A message for an already-settled round lost the race (or is
               a duplicate); [recv] discards it — record that. *)
            (let s = Dsim.Engine.obs t.eng in
             if s.Obs.Sink.active && Ccs_handler.round_settled h p.round then
               Obs.Sink.rec_event s ~kind:Obs.Recorder.k_ccs_discard
                 ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
                 ~node:(Netsim.Node_id.to_int (me t))
                 ~a:p.round ~b:0);
            Ccs_handler.recv h p
        | None ->
            let q =
              match Hashtbl.find_opt t.common_buffer key with
              | Some q -> q
              | None ->
                  let q = Queue.create () in
                  Hashtbl.replace t.common_buffer key q;
                  q
            in
            Queue.push p q));
  Obs.Sink.attr_leave sink

let on_view t view =
  let was_primary = i_am_primary t in
  t.view <- Some view;
  (* A backup promoted to primary must send the CCS message for any round
     its threads are blocked in, unless the old primary's message already
     arrived (§3, §3.3). *)
  if t.cfg.mode = Primary_backup && (not was_primary) && i_am_primary t then
    (* Re-sends go out in thread-id order so the CCS message sequence a
       promoted primary produces is a function of state, not of the
       handler table's bucket layout. *)
    Dsim.Det.iter_sorted ~compare:Int.compare
      (fun _ h ->
        match Ccs_handler.pending h with
        | Some payload when Ccs_handler.buffered h = 0 ->
            Log.debug (fun m ->
                m "%a: promoted to primary, re-sending CCS for %a round %d"
                  Netsim.Node_id.pp (me t) Thread_id.pp payload.Ccs_msg.thread
                  payload.Ccs_msg.round);
            send_ccs t payload
        | Some _ | None -> ())
      t.handlers

(* ------------------------------------------------------------------ *)
(* Clock operations (Figure 2)                                         *)

let record_reading t ~thread value =
  t.s_rounds <- t.s_rounds + 1;
  t.s_last_value <- Some value;
  let key = Thread_id.to_int thread in
  if key >= Array.length t.last_per_thread then begin
    let n = Array.length t.last_per_thread in
    let a = Array.make (max (key + 1) (2 * n + 4)) no_reading in
    Array.blit t.last_per_thread 0 a 0 n;
    t.last_per_thread <- a
  end;
  let prev = t.last_per_thread.(key) in
  let value_ns = Time.to_ns value in
  (if prev <> no_reading && value_ns < prev then begin
     let magnitude = Span.of_ns (prev - value_ns) in
     t.s_rollbacks <- t.s_rollbacks + 1;
     if Span.(magnitude > t.s_max_rollback) then t.s_max_rollback <- magnitude
   end);
  t.last_per_thread.(key) <- value_ns;
  (* Every settled clock read feeds the stream one group-clock sample —
     the raw pre-truncation value, so [Obs.Check] judges §3
     monotonicity on what the service actually agreed. *)
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.active then
    Obs.Sink.rec_event s ~kind:Obs.Recorder.k_gc_sample
      ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node:(Netsim.Node_id.to_int (me t))
      ~a:(value_ns / 1000) ~b:key

let clock_read t ~thread ~call =
  if not t.init then
    invalid_arg "Cts.Service.clock_read: replica not yet initialized";
  let pc = Clock.Hwclock.read t.clock in
  let local = if t.cfg.offset_tracking then Time.add pc t.offset else pc in
  let local = Drift.adjust_proposal t.cfg.drift local in
  (* §5 extension: proposals never fall below the causal floor learned from
     other groups' timestamps.  The prior-work baseline (offset_tracking =
     false) has no such machinery. *)
  let local =
    match t.floor with
    | Some f when t.cfg.offset_tracking -> Time.max local f
    | Some _ | None -> local
  in
  let h = handler_for t thread in
  (* CCS round: open when the round starts (before blocking on the
     group), settle when the winning synchronizer's message settles it —
     the [ccs-round] span of the Chrome export.  Rounds on one (replica,
     thread) are strictly sequential, so the spans nest trivially in the
     per-replica ccs thread row. *)
  (let s = Dsim.Engine.obs t.eng in
   if s.Obs.Sink.active then
     Obs.Sink.rec_event s ~kind:Obs.Recorder.k_ccs_open
       ~ts_us:(Time.to_ns (Dsim.Engine.now t.eng) / 1000)
       ~node:(Netsim.Node_id.to_int (me t))
       ~a:(Ccs_handler.round h + 1)
       ~b:(Thread_id.to_int thread));
  let old_offset = t.offset in
  let winner = Ccs_handler.get_grp_clock_time h ~proposal:local ~call in
  let gc = winner.Ccs_msg.proposal in
  if t.cfg.offset_tracking then
    t.offset <- Drift.adjust_offset t.cfg.drift (Time.diff gc pc);
  (* The offset update (tracking only) is its own record, emitted just
     before the settle so the Chrome export can put [offset_us] on the
     round's End. *)
  (let s = Dsim.Engine.obs t.eng in
   if s.Obs.Sink.active then begin
     let ts_us = Time.to_ns (Dsim.Engine.now t.eng) / 1000
     and node = Netsim.Node_id.to_int (me t)
     and adj_us = (Span.to_ns t.offset - Span.to_ns old_offset) / 1000 in
     if t.cfg.offset_tracking then
       Obs.Sink.rec_event s ~kind:Obs.Recorder.k_ccs_offset ~ts_us ~node
         ~a:(Span.to_us t.offset) ~b:adj_us;
     Obs.Sink.rec_event s ~kind:Obs.Recorder.k_ccs_settle ~ts_us ~node
       ~a:winner.Ccs_msg.round ~b:adj_us
   end);
  (* Monotonicity accounting uses the raw group clock: coarse call types
     (time() truncates to seconds) would otherwise look like roll-backs. *)
  record_reading t ~thread gc;
  Time.truncate_to (Call_type.granularity call) gc

let gettimeofday t ~thread = clock_read t ~thread ~call:Call_type.Gettimeofday
let time t ~thread = clock_read t ~thread ~call:Call_type.Time
let ftime t ~thread = clock_read t ~thread ~call:Call_type.Ftime

let special_round t =
  clock_read t ~thread:Thread_id.recovery ~call:Call_type.Gettimeofday

(* ------------------------------------------------------------------ *)
(* Checkpoint support                                                  *)

let thread_rounds t =
  Dsim.Det.sorted_bindings ~compare:Int.compare t.handlers
  |> List.map (fun (_, h) -> (Ccs_handler.thread h, Ccs_handler.round h))

let advance_thread t ~thread ~round =
  Ccs_handler.advance_to (handler_for t thread) ~round
