exception Timeout

(* One attempt's reply cell.  [Some r] is a reply delivered strictly
   before [deadline]; [None] is the watchdog's verdict at the deadline.
   Whichever comes first fills it, and the calling fiber reads it once. *)
type outstanding = {
  seq : int;
  cell : string option Dsim.Sync.Ivar.t;
  deadline : Dsim.Time.t; (* [no_deadline] for an untimed attempt *)
}

type t = {
  eng : Dsim.Engine.t;
  endpoint : Gcs.Endpoint.t;
  my_group : Gcs.Group_id.t;
  server_group : Gcs.Group_id.t;
  conn_id : int;
  mutable next_seq : int;
  pending : (int, outstanding) Hashtbl.t;
      (* keyed by msg_seq; an expired attempt stays until its first late
         reply, so that reply is dropped without counting as a duplicate *)
  mutable timed : outstanding list;
      (* unfilled timed attempts, newest first: the watchdog's work list *)
  mutable armed : Dsim.Time.t;
      (* the watchdog's next wake-up, [no_deadline] when none is armed *)
  mutable sent : int;
  mutable dup_replies : int;
  mutable causal_ts : Dsim.Time.t option;
      (* highest group-clock timestamp seen in any reply; forwarded on
         subsequent requests so causality spans server groups (§5) *)
}

let no_deadline = Dsim.Time.of_ns max_int

let rec drop_seq seq = function
  | [] -> []
  | o :: rest when o.seq = seq -> rest
  | o :: rest -> o :: drop_seq seq rest

(* The deadline watchdog: one per client, however many calls it makes.
   It is armed only when none is armed or a new deadline is earlier than
   the armed one; a wake-up that is no longer the armed one does nothing.
   A wake-up expires every attempt whose deadline has come and re-arms at
   exactly the earliest remaining deadline — the lazy chase of Totem's
   token watchdog, made exact.  A closed loop of calls with one timeout
   therefore queues one wake-up per timeout span, not one per call. *)
let rec watchdog t =
  let now = Dsim.Engine.now t.eng in
  if Dsim.Time.equal now t.armed then begin
    t.armed <- no_deadline;
    let expired, live =
      List.partition (fun o -> Dsim.Time.(o.deadline <= now)) t.timed
    in
    t.timed <- live;
    List.iter
      (fun o -> Dsim.Sync.Ivar.fill t.eng o.cell None)
      (List.rev expired);
    match live with
    | [] -> ()
    | o :: rest ->
        let earliest d o = Dsim.Time.min d o.deadline in
        arm t (List.fold_left earliest o.deadline rest)
  end

and arm t deadline =
  if Dsim.Time.(deadline < t.armed) then begin
    t.armed <- deadline;
    Dsim.Engine.schedule_call_at t.eng deadline watchdog t
  end

(* A reply fills its attempt only when delivered strictly before the
   deadline: at the deadline instant it loses to the watchdog whichever
   event runs first, so the tie never depends on queue order. *)
let on_reply t ~seq ~result ~ts =
  (match (ts, t.causal_ts) with
  | Some ts, Some prev when Dsim.Time.(ts > prev) -> t.causal_ts <- Some ts
  | Some ts, None -> t.causal_ts <- Some ts
  | _ -> ());
  match Hashtbl.find_opt t.pending seq with
  | Some o ->
      Hashtbl.remove t.pending seq;
      if
        (not (Dsim.Sync.Ivar.is_filled o.cell))
        && Dsim.Time.(Dsim.Engine.now t.eng < o.deadline)
      then begin
        if not (Dsim.Time.equal o.deadline no_deadline) then
          t.timed <- drop_seq seq t.timed;
        Dsim.Sync.Ivar.fill t.eng o.cell (Some result)
      end
  | None -> t.dup_replies <- t.dup_replies + 1

let on_event t = function
  | Gcs.Endpoint.Deliver { msg; _ } -> (
      match msg.Gcs.Msg.body with
      | Wire.Reply { result; ts; _ } ->
          let s = Dsim.Engine.obs t.eng in
          Obs.Sink.attr_enter s Obs.Attrib.Rpc_reply;
          on_reply t ~seq:msg.Gcs.Msg.header.msg_seq ~result ~ts;
          Obs.Sink.attr_leave s
      | _ -> ())
  | Gcs.Endpoint.View_change _ | Gcs.Endpoint.Block | Gcs.Endpoint.Evicted ->
      ()

let create eng ~endpoint ~my_group ~server_group () =
  let t =
    {
      eng;
      endpoint;
      my_group;
      server_group;
      conn_id =
        (1000 * Gcs.Group_id.to_int my_group)
        + Gcs.Group_id.to_int server_group;
      next_seq = 0;
      pending = Hashtbl.create 8;
      timed = [];
      armed = no_deadline;
      sent = 0;
      dup_replies = 0;
      causal_ts = None;
    }
  in
  Gcs.Endpoint.join_group endpoint my_group ~handler:(on_event t);
  t

(* One attempt: [Some reply], or [None] if the deadline came first. *)
let attempt ?timeout t ~seq ~op ~arg =
  let deadline =
    match timeout with
    | None -> no_deadline
    | Some d ->
        (* a negative timeout expires at once, like a zero one *)
        let now = Dsim.Engine.now t.eng in
        Dsim.Time.max now (Dsim.Time.add now d)
  in
  let o = { seq; cell = Dsim.Sync.Ivar.create (); deadline } in
  Hashtbl.replace t.pending seq o;
  t.sent <- t.sent + 1;
  Gcs.Endpoint.multicast t.endpoint
    (Wire.request ~src_grp:t.my_group ~dst_grp:t.server_group
       ~conn_id:t.conn_id ~msg_seq:seq ~op ~arg ?ts:t.causal_ts ());
  (match timeout with
  | None -> ()
  | Some _ ->
      t.timed <- o :: t.timed;
      arm t deadline);
  Dsim.Sync.Ivar.read o.cell

(* Call-lifecycle probes.  The [rpc] span covers the whole invocation
   including retries; a timeout closes it with [timeout] = 1, so the
   stream never holds a dangling begin. *)
let probe_call t ~kind ~a ~b =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.active then
    Obs.Sink.rec_event s ~kind
      ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node:(Netsim.Node_id.to_int (Gcs.Endpoint.me t.endpoint))
      ~a ~b

let probe_call_end t ~started ~timed_out =
  probe_call t ~kind:Obs.Recorder.k_rpc_end
    ~a:(Dsim.Time.Span.to_us (Dsim.Time.diff (Dsim.Engine.now t.eng) started))
    ~b:(if timed_out then 1 else 0)

let invoke ?timeout ?(retries = 0) t ~op ~arg =
  t.next_seq <- t.next_seq + 1;
  let seq = t.next_seq in
  let started = Dsim.Engine.now t.eng in
  probe_call t ~kind:Obs.Recorder.k_rpc_begin ~a:seq ~b:0;
  (* Retries reuse the sequence number: the server-side duplicate-detection
     cache re-sends the cached reply instead of re-executing, so the
     invocation stays exactly-once even when a reply is lost to a crash. *)
  let rec go attempts_left =
    match attempt ?timeout t ~seq ~op ~arg with
    | Some r ->
        probe_call_end t ~started ~timed_out:false;
        r
    | None ->
        if attempts_left > 0 then go (attempts_left - 1)
        else begin
          probe_call_end t ~started ~timed_out:true;
          raise Timeout
        end
  in
  go retries

let invoke_timed ?timeout ?retries t ~op ~arg =
  let started = Dsim.Engine.now t.eng in
  let result = invoke ?timeout ?retries t ~op ~arg in
  (result, Dsim.Time.diff (Dsim.Engine.now t.eng) started)

let observe_timestamp t ts =
  match t.causal_ts with
  | Some prev when Dsim.Time.(prev >= ts) -> ()
  | Some _ | None -> t.causal_ts <- Some ts

let last_timestamp t = t.causal_ts
let requests_sent t = t.sent
let duplicate_replies t = t.dup_replies
