type config = { latency : Latency.t; loss : float }

let default_config =
  { latency = Latency.calibrated ~wire:Latency.default_wire; loss = 0. }

type 'a port = { handler : src:Node_id.t -> 'a -> unit }

(* Delivery cells.  A packet in flight is one [dcell] handed to the
   engine's [schedule_call] together with a top-level fire function, so
   no closure is built per packet.  Cells are allocated per packet and
   die when they fire: a free list would keep every cell of the largest
   burst ever seen (the formation join storm) alive for the rest of the
   run, several MB of a large world, to save a short-lived minor-heap
   allocation.

   [bcell] is the batched variant used by {!broadcast_many}: one cell
   carries every message bound for one destination at one delivery
   instant, so a Totem token visit that emits k messages costs one
   queued event per destination rather than k. *)
type 'a dcell = {
  d_net : 'a t;
  d_src : Node_id.t;
  d_dst : Node_id.t;
  d_payload : 'a;
}

and 'a bcell = {
  b_net : 'a t;
  b_src : Node_id.t;
  b_dst : Node_id.t;
  mutable b_payloads : 'a array;
  mutable b_n : int;
}

and 'a t = {
  eng : Dsim.Engine.t;
  rng : Dsim.Rng.t;
  mutable cfg : config; (* only [loss] changes after [create] *)
  lat : Latency.compiled; (* [cfg.latency], compiled once *)
  mutable base : int;
      (* lowest node id the per-node tables cover: [ports], [sent],
         [delivered] and both dimensions of [last_delivery] are indexed
         by [id - base], so a network whose ids start high (every shard
         of a hierarchical cluster but the first) pays for the span of
         its own ids only.  Only lowered, by [ensure_node], which then
         shifts every table; meaningless while [ports] is empty *)
  mutable ports : 'a port option array;
      (* indexed by [id - base] — ids are small dense ints, so arrays
         beat hash tables on the per-packet lookup paths *)
  mutable members : Node_id.t array;
      (* attached nodes, sorted ascending in slots [0 .. n_members-1]
         (slots beyond are junk).  The sorted invariant is maintained
         incrementally — binary-search insert on attach, blit-out on
         detach — so a join costs one shift, not the former per-join
         [List.sort] of the whole membership *)
  mutable n_members : int;
  mutable group_mask : int array;
      (* partition as a per-node-id bitmask of group membership: a packet
         is deliverable iff the masks intersect.  Empty array = no
         partition; ids beyond the array (or with mask 0) are in no group
         and therefore isolated.  Rebuilt wholesale by [partition], read
         with one [land] per packet *)
  mutable sent : int array; (* per-node sent counter, by [id - base] *)
  mutable delivered : int array;
  mutable last_delivery : int array array;
      (* per (src, dst) path, both by [id - base]: last delivery instant
         in ns ([-1] = never), FIFO ordering like a switched LAN.  Rows
         are created lazily per src and sized to the port table. *)
  mutable dropped : int;
  mutable delay_hook : (src:Node_id.t -> dst:Node_id.t -> Dsim.Time.Span.t) option;
}

let create eng cfg =
  if cfg.loss < 0. || cfg.loss >= 1. then
    invalid_arg "Network.create: loss out of [0, 1)";
  {
    eng;
    rng = Dsim.Rng.split (Dsim.Engine.rng eng);
    cfg;
    lat = Latency.compile cfg.latency;
    base = 0;
    ports = [||];
    members = [||];
    n_members = 0;
    group_mask = [||];
    sent = [||];
    delivered = [||];
    last_delivery = [||];
    dropped = 0;
    delay_hook = None;
  }

let rng t = t.rng

let grow_to len a fill =
  let n = Array.length a in
  if len <= n then a
  else begin
    let a' = Array.make (max len (2 * n)) fill in
    Array.blit a 0 a' 0 n;
    a'
  end

(* Prepend [d] slots of [fill]. *)
let shift_by d a fill =
  let a' = Array.make (Array.length a + d) fill in
  Array.blit a 0 a' d (Array.length a);
  a'

(* Make every per-node table cover node [id]: the first node fixes
   [base], a lower one shifts every table (both dimensions of the FIFO
   rows) down to it, a higher one grows the tables. *)
let ensure_node t id =
  let i = Node_id.to_int id in
  if Array.length t.ports = 0 then t.base <- i
  else if i < t.base then begin
    let d = t.base - i in
    t.ports <- shift_by d t.ports None;
    t.sent <- shift_by d t.sent 0;
    t.delivered <- shift_by d t.delivered 0;
    t.last_delivery <-
      shift_by d
        (Array.map
           (fun row -> if Array.length row = 0 then row else shift_by d row (-1))
           t.last_delivery)
        [||];
    t.base <- i
  end;
  let j = i - t.base in
  if j >= Array.length t.ports then begin
    t.ports <- grow_to (j + 1) t.ports None;
    t.sent <- grow_to (j + 1) t.sent 0;
    t.delivered <- grow_to (j + 1) t.delivered 0
  end

let port_of t id =
  let i = Node_id.to_int id - t.base in
  if i >= 0 && i < Array.length t.ports then Array.unsafe_get t.ports i
  else None

(* Index of the first live member >= [id] (so [n_members] when every
   member is smaller): the insertion slot for attach, the candidate slot
   for detach. *)
let member_slot t id =
  let lo = ref 0 and hi = ref t.n_members in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Node_id.compare (Array.unsafe_get t.members mid) id < 0 then
      lo := mid + 1
    else hi := mid
  done;
  !lo

let attach t id handler =
  ensure_node t id;
  if port_of t id <> None then
    invalid_arg
      (Format.asprintf "Network.attach: %a already attached" Node_id.pp id);
  t.ports.(Node_id.to_int id - t.base) <- Some { handler };
  let n = t.n_members in
  if n = Array.length t.members then begin
    let a = Array.make (if n = 0 then 8 else 2 * n) id in
    Array.blit t.members 0 a 0 n;
    t.members <- a
  end;
  let i = member_slot t id in
  Array.blit t.members i t.members (i + 1) (n - i);
  t.members.(i) <- id;
  t.n_members <- n + 1

let detach t id =
  let i = Node_id.to_int id - t.base in
  if i >= 0 && i < Array.length t.ports then t.ports.(i) <- None;
  let s = member_slot t id in
  if s < t.n_members && Node_id.equal t.members.(s) id then begin
    Array.blit t.members (s + 1) t.members s (t.n_members - s - 1);
    t.n_members <- t.n_members - 1
  end

let attached t id = port_of t id <> None
let nodes t = List.init t.n_members (fun i -> t.members.(i))

(* The packet log: one stream record per send, delivery and drop, with
   the ints already in hand — gate inside, so a disabled call is the
   sink load plus one branch.  Drop reasons are 0 = loss, 1 =
   partitioned, 2 = no port ([Obs.Recorder.drop_b] packs them with the
   position); [pos] is a message's position inside a batch (-1 =
   unbatched), so every message a batch absorbs still gets a record of
   its own, delivered or dropped. *)
let rec_net t ~kind ~node ~a ~b =
  let s = Dsim.Engine.obs t.eng in
  if s.Obs.Sink.active then
    Obs.Sink.rec_event s ~kind
      ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
      ~node ~a ~b
[@@inline] [@@ctslint.hotpath]

let rec_sent t ~src ~dst =
  rec_net t ~kind:Obs.Recorder.k_send ~node:(Node_id.to_int src) ~a:dst ~b:0
[@@inline] [@@ctslint.hotpath]

let rec_delivered t ~src ~dst ~pos =
  rec_net t ~kind:Obs.Recorder.k_deliver ~node:(Node_id.to_int dst)
    ~a:(Node_id.to_int src) ~b:pos
[@@inline] [@@ctslint.hotpath]

let rec_dropped t ~src ~dst ~reason ~pos =
  rec_net t ~kind:Obs.Recorder.k_drop ~node:(Node_id.to_int dst)
    ~a:(Node_id.to_int src) ~b:(Obs.Recorder.drop_b ~reason ~pos)
[@@inline] [@@ctslint.hotpath]

let bump_sent t id =
  ensure_node t id;
  let i = Node_id.to_int id - t.base in
  t.sent.(i) <- t.sent.(i) + 1

(* Only called once [port_of] found the destination, so [id] is in range. *)
let bump_delivered t id =
  let i = Node_id.to_int id - t.base in
  Array.unsafe_set t.delivered i (Array.unsafe_get t.delivered i + 1)

let reachable t ~src ~dst =
  let m = t.group_mask in
  let len = Array.length m in
  len = 0
  ||
  let i = Node_id.to_int src and j = Node_id.to_int dst in
  i < len && j < len && Array.unsafe_get m i land Array.unsafe_get m j <> 0

(* The FIFO row for [src], sized to the port table; cells hold the last
   delivery instant in ns, [-1] when the path is untouched.  [src] is
   covered by the tables: its send was counted first. *)
let paths_from t src =
  let i = Node_id.to_int src - t.base in
  if i >= Array.length t.last_delivery then
    t.last_delivery <- grow_to (i + 1) t.last_delivery [||];
  let row = t.last_delivery.(i) in
  let want = Array.length t.ports in
  if Array.length row < want then begin
    let row = grow_to want row (-1) in
    t.last_delivery.(i) <- row;
    row
  end
  else row

(* [dst] is covered by the tables (an attached member, or ensured). *)
let path_prev t (row : int array) dst =
  let j = Node_id.to_int dst - t.base in
  if j < Array.length row then Array.unsafe_get row j else -1

let path_set t (row : int array) dst ns =
  Array.unsafe_set row (Node_id.to_int dst - t.base) ns

(* Fires as an engine call: deliver one packet. *)
let dcell_fire (c : 'a dcell) =
  let t = c.d_net in
  let src = c.d_src and dst = c.d_dst and payload = c.d_payload in
  let s = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter s Obs.Attrib.Netsim_deliver;
  (* The destination may have crashed while the packet was in flight. *)
  (match port_of t dst with
  | None ->
      t.dropped <- t.dropped + 1;
      rec_dropped t ~src ~dst ~reason:2 ~pos:(-1)
  | Some port ->
      bump_delivered t dst;
      rec_delivered t ~src ~dst ~pos:(-1);
      port.handler ~src payload);
  Obs.Sink.attr_leave s

let deliver_extra t ~extra ~src ~dst payload =
  if reachable t ~src ~dst then
    if t.cfg.loss > 0. && Dsim.Rng.float t.rng 1.0 < t.cfg.loss then begin
      t.dropped <- t.dropped + 1;
      rec_dropped t ~src ~dst ~reason:0 ~pos:(-1);
      false
    end
    else begin
      let lat = Dsim.Time.Span.add extra (Latency.draw t.rng t.lat) in
      (* Controller-directed extra delay (schedule exploration) is added
         before the FIFO bump below, so the per-path ordering guarantee
         holds even for perturbed packets. *)
      let lat =
        match t.delay_hook with
        | Some hook -> Dsim.Time.Span.add lat (hook ~src ~dst)
        | None -> lat
      in
      let at = Dsim.Time.add (Dsim.Engine.now t.eng) lat in
      ensure_node t dst;
      let row = paths_from t src in
      let prev = path_prev t row dst in
      let at_ns =
        let ns = Dsim.Time.to_ns at in
        if ns <= prev then prev + 1 else ns
      in
      path_set t row dst at_ns;
      Dsim.Engine.schedule_call_at t.eng (Dsim.Time.of_ns at_ns) dcell_fire
        { d_net = t; d_src = src; d_dst = dst; d_payload = payload };
      true
    end
  else begin
    t.dropped <- t.dropped + 1;
    rec_dropped t ~src ~dst ~reason:1 ~pos:(-1);
    false
  end

let deliver t ~src ~dst payload =
  deliver_extra t ~extra:Dsim.Time.Span.zero ~src ~dst payload

let send_tracked t ~src ~dst payload =
  bump_sent t src;
  rec_sent t ~src ~dst:(Node_id.to_int dst);
  deliver t ~src ~dst payload

let send_tracked_after t ~delay ~src ~dst payload =
  bump_sent t src;
  rec_sent t ~src ~dst:(Node_id.to_int dst);
  deliver_extra t ~extra:delay ~src ~dst payload

let send t ~src ~dst payload =
  ignore (send_tracked t ~src ~dst payload : bool)

let broadcast t ~src payload =
  bump_sent t src;
  rec_sent t ~src ~dst:(-1);
  for i = 0 to t.n_members - 1 do
    let dst = Array.unsafe_get t.members i in
    if not (Node_id.equal dst src) then
      ignore (deliver t ~src ~dst payload : bool)
  done

let bcell_append b payload =
  let cap = Array.length b.b_payloads in
  if b.b_n = cap then begin
    let a = Array.make (2 * cap) payload in
    Array.blit b.b_payloads 0 a 0 b.b_n;
    b.b_payloads <- a
  end;
  Array.unsafe_set b.b_payloads b.b_n payload;
  b.b_n <- b.b_n + 1

(* Deliver the whole batch in append order.  The port is re-checked per
   message because a handler may detach the destination mid-batch. *)
let bcell_fire (b : 'a bcell) =
  let t = b.b_net in
  let src = b.b_src and dst = b.b_dst in
  let s = Dsim.Engine.obs t.eng in
  Obs.Sink.attr_enter s Obs.Attrib.Netsim_deliver_batch;
  for i = 0 to b.b_n - 1 do
    let payload = Array.unsafe_get b.b_payloads i in
    (* Re-checked per message, and recorded per message: a handler that
       detaches the destination mid-batch turns exactly the remaining
       messages into [No_port] drops, each with its own record. *)
    match port_of t dst with
    | None ->
        t.dropped <- t.dropped + 1;
        rec_dropped t ~src ~dst ~reason:2 ~pos:i
    | Some port ->
        bump_delivered t dst;
        rec_delivered t ~src ~dst ~pos:i;
        port.handler ~src payload
  done;
  Obs.Sink.attr_leave s

let broadcast_many t ~src payloads ~n =
  if n < 0 || n > Array.length payloads then
    invalid_arg "Network.broadcast_many: n out of range";
  if n = 1 then broadcast t ~src payloads.(0)
  else if n > 0 then begin
    let s = Dsim.Engine.obs t.eng in
    Obs.Sink.attr_enter s Obs.Attrib.Netsim_broadcast_many;
    for _ = 1 to n do
      bump_sent t src;
      rec_sent t ~src ~dst:(-1)
    done;
    let now_ns = Dsim.Time.to_ns (Dsim.Engine.now t.eng) in
    let paths = paths_from t src in
    for mi = 0 to t.n_members - 1 do
      let dst = Array.unsafe_get t.members mi in
      (if not (Node_id.equal dst src) then begin
          if reachable t ~src ~dst then begin
            (* Per-destination batching: consecutive messages whose raw
               delivery instant does not exceed the open batch's instant
               ride in the same queued event (delivered in send order, so
               path FIFO holds); a later instant closes the batch and
               opens a new one, subject to the same no-overtaking bump as
               the unbatched path. *)
            let batch = ref None in
            let clock = ref (path_prev t paths dst) in
            for i = 0 to n - 1 do
              let payload = payloads.(i) in
              if t.cfg.loss > 0. && Dsim.Rng.float t.rng 1.0 < t.cfg.loss
              then begin
                t.dropped <- t.dropped + 1;
                rec_dropped t ~src ~dst ~reason:0 ~pos:(-1)
              end
              else begin
                let lat = Latency.draw t.rng t.lat in
                let lat =
                  match t.delay_hook with
                  | Some hook -> Dsim.Time.Span.add lat (hook ~src ~dst)
                  | None -> lat
                in
                let raw = now_ns + Dsim.Time.Span.to_ns lat in
                (* while a batch is open, [clock] is its instant *)
                match !batch with
                | Some b when raw <= !clock -> bcell_append b payload
                | _ ->
                    let at_ns = if raw <= !clock then !clock + 1 else raw in
                    let nb =
                      {
                        b_net = t;
                        b_src = src;
                        b_dst = dst;
                        b_payloads = Array.make (min 8 (n - i)) payload;
                        b_n = 1;
                      }
                    in
                    Dsim.Engine.schedule_call_at t.eng (Dsim.Time.of_ns at_ns)
                      bcell_fire nb;
                    batch := Some nb;
                    clock := at_ns
              end
            done;
            if !clock >= 0 then path_set t paths dst !clock
          end
          else begin
            for _ = 1 to n do
              t.dropped <- t.dropped + 1;
              rec_dropped t ~src ~dst ~reason:1 ~pos:(-1)
            done
          end
        end)
    done;
    Obs.Sink.attr_leave s
  end

let set_loss t loss =
  if loss < 0. || loss >= 1. then invalid_arg "Network.set_loss: out of [0, 1)";
  t.cfg <- { t.cfg with loss }

(* One bit per group; the top bit stays clear so masks are plain
   non-negative immediates. *)
let mask_bits = Sys.int_size - 2

let partition t groups =
  let ng = List.length groups in
  if ng > mask_bits then
    invalid_arg
      (Printf.sprintf "Network.partition: %d groups, at most %d" ng mask_bits);
  if ng = 0 then
    (* historical behaviour: an empty partition heals *)
    t.group_mask <- [||]
  else begin
    let top =
      List.fold_left
        (List.fold_left (fun acc id -> max acc (Node_id.to_int id)))
        (-1) groups
    in
    (* at least one slot, so an all-empty partition still isolates
       everyone instead of looking like "no partition" *)
    let m = Array.make (max 1 (top + 1)) 0 in
    List.iteri
      (fun g ids ->
        let bit = 1 lsl g in
        List.iter (fun id -> m.(Node_id.to_int id) <- m.(Node_id.to_int id) lor bit) ids)
      groups;
    t.group_mask <- m
  end

let heal t = t.group_mask <- [||]

let stats t ~sent id =
  let a = if sent then t.sent else t.delivered in
  let i = Node_id.to_int id - t.base in
  if i >= 0 && i < Array.length a then a.(i) else 0

let packets_dropped t = t.dropped
let set_delay_hook t hook = t.delay_hook <- hook
