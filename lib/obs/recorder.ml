(* Always-on flight recorder: a fixed-capacity ring of compact
   int-encoded records.  One record is [stride] consecutive cells of a
   flat [int array] — kind, simulated-µs timestamp, node, and two
   payload ints — so the steady-state wrap path performs five integer
   stores and two mutable-field writes and allocates nothing.  The
   subsystem is a static property of the kind and is not stored. *)

type t = {
  buf : int array;
  cap : int; (* capacity in records *)
  mutable pos : int; (* next write slot, 0 <= pos < cap *)
  mutable total : int; (* records ever emitted *)
}

let stride = 5
let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity <= 0";
  { buf = Array.make (capacity * stride) 0; cap = capacity; pos = 0; total = 0 }

let capacity t = t.cap
let total t = t.total
let length t = if t.total < t.cap then t.total else t.cap
let dropped t = t.total - length t

let clear t =
  t.pos <- 0;
  t.total <- 0

let emit t ~kind ~ts_us ~node ~a ~b =
  let base = t.pos * stride in
  let buf = t.buf in
  buf.(base) <- kind;
  buf.(base + 1) <- ts_us;
  buf.(base + 2) <- node;
  buf.(base + 3) <- a;
  buf.(base + 4) <- b;
  let p = t.pos + 1 in
  t.pos <- (if p = t.cap then 0 else p);
  t.total <- t.total + 1
[@@inline] [@@ctslint.hotpath]

(* ------------------------------------------------------------------ *)
(* Record kinds, each declared once in [kinds]: name, subsystem, [a] /
   [b] payload names ("" = unused) and span role (a Begin kind closed by
   one End kind of its subsystem renders as one named span).  The [k_*]
   constants are looked up by name; a new kind is one new row. *)

type role = Instant | Opens of string | Closes of string

let kinds =
  Subsystem.
    [|
      ("step", Dsim, "at_us", "", Instant);
      ("fiber-spawn", Dsim, "fiber", "", Instant);
      ("fiber-switch", Dsim, "fiber", "", Instant);
      ("send", Netsim, "dst", "", Instant);
      ("deliver", Netsim, "src", "pos", Instant);
      ("drop", Netsim, "src", "reason", Instant);
      ("token", Totem, "seq", "aru", Instant);
      ("gather", Totem, "members", "", Instant);
      ("operational", Totem, "gen", "members", Instant);
      ("view", Gcs, "members", "primary", Instant);
      ("ccs-open", Ccs, "round", "thread", Opens "ccs-round");
      ("ccs-settle", Ccs, "round", "adjustment_us", Closes "ccs-round");
      ("ccs-suppress", Ccs, "round", "", Instant);
      ("ccs-discard", Ccs, "round", "", Instant);
      ("gc-sample", Ccs, "gc_us", "thread", Instant);
      ("hier-round", Hier, "round", "", Instant);
      ("hier-correct", Hier, "round", "ahead_us", Instant);
      ("hier-elect", Hier, "shard", "gateway", Instant);
      ("ccs-offset", Ccs, "offset_us", "adjustment_us", Instant);
      ("rpc-begin", Rpc, "seq", "", Opens "rpc");
      ("rpc-end", Rpc, "latency_us", "timeout", Closes "rpc");
      ("repl-request", Repl, "index", "", Instant);
      ("repl-checkpoint", Repl, "upto", "applied", Instant);
      ("bridge-open", Hier, "round", "", Opens "bridge-round");
      ("bridge-close", Hier, "round", "offers", Closes "bridge-round");
      ("read", Scenario, "value_ns", "round", Instant);
      ("ccs-propose", Ccs, "round", "proposal_ns", Instant);
      ("crash", Totem, "", "", Instant);
      ("hier-clamp", Hier, "round", "behind_us", Instant);
    |]

let kind_count = Array.length kinds

let k name =
  let rec find i =
    match kinds.(i) with n, _, _, _, _ when n = name -> i | _ -> find (i + 1)
  in
  find 0

let k_step = k "step"
let k_fiber_spawn = k "fiber-spawn"
let k_fiber_switch = k "fiber-switch"
let k_send = k "send"
let k_deliver = k "deliver"
let k_drop = k "drop"
let k_token = k "token"
let k_gather = k "gather"
let k_operational = k "operational"
let k_view = k "view"
let k_ccs_open = k "ccs-open"
let k_ccs_settle = k "ccs-settle"
let k_ccs_suppress = k "ccs-suppress"
let k_ccs_discard = k "ccs-discard"
let k_gc_sample = k "gc-sample"
let k_hier_round = k "hier-round"
let k_hier_correct = k "hier-correct"
let k_hier_elect = k "hier-elect"
let k_ccs_offset = k "ccs-offset"
let k_rpc_begin = k "rpc-begin"
let k_rpc_end = k "rpc-end"
let k_repl_request = k "repl-request"
let k_repl_checkpoint = k "repl-checkpoint"
let k_bridge_open = k "bridge-open"
let k_bridge_close = k "bridge-close"
let k_read = k "read"
let k_ccs_propose = k "ccs-propose"
let k_crash = k "crash"
let k_hier_clamp = k "hier-clamp"

let desc kind =
  if kind >= 0 && kind < kind_count then kinds.(kind)
  else ("?", Subsystem.Scenario, "a", "b", Instant)

let kind_name kind = match desc kind with n, _, _, _, _ -> n
let kind_sub kind = match desc kind with _, sub, _, _, _ -> sub
let arg_names kind = match desc kind with _, _, a, b, _ -> (a, b)

let span_name kind =
  match desc kind with
  | _, _, _, _, (Opens name | Closes name) -> name
  | name, _, _, _, Instant -> name

(* A drop's [b] packs the reason (low two bits: 0 = loss, 1 =
   partitioned, 2 = no port) with its batch position + 1, so an
   unbatched drop's [b] is the bare reason. *)
let drop_b ~reason ~pos = reason lor ((pos + 1) lsl 2) [@@inline]

let drop_reason_name b =
  match b land 3 with
  | 0 -> "loss"
  | 1 -> "partitioned"
  | 2 -> "no-port"
  | _ -> "?"

(* An operational record's [b] packs the member count (low 20 bits)
   with the ring's representative: a Totem ring is [(rep, gen)]. *)
let operational_b ~members ~rep = members lor (rep lsl 20) [@@inline]
let operational_members b = b land 0xFFFFF
let operational_rep b = b lsr 20

let args ~kind ~a ~b =
  if kind = k_drop then
    let pos = (b lsr 2) - 1 in
    let common = [ ("src", a); ("reason", b land 3) ] in
    if pos < 0 then common else common @ [ ("pos", pos) ]
  else if kind = k_operational then
    [ ("gen", a); ("members", operational_members b);
      ("rep", operational_rep b) ]
  else
    let an, bn = arg_names kind in
    List.filter (fun (name, _) -> name <> "") [ (an, a); (bn, b) ]

let iter t f =
  let n = length t in
  let start = if t.total <= t.cap then 0 else t.pos in
  for i = 0 to n - 1 do
    let idx = start + i in
    let idx = if idx >= t.cap then idx - t.cap else idx in
    let base = idx * stride in
    f ~kind:t.buf.(base) ~ts_us:t.buf.(base + 1) ~node:t.buf.(base + 2)
      ~a:t.buf.(base + 3) ~b:t.buf.(base + 4)
  done

(* One Chrome event per record, except that an End is dropped when no
   Begin of its (node, subsystem) row is open — its Begin fell off the
   start of the window, and the validator rejects an unmatched End.  A
   [ccs-offset] record immediately precedes its round's settle, so the
   settle's End also carries the post-round [offset_us]. *)
let chrome_events t f =
  let depth = Hashtbl.create 16 and offset = Hashtbl.create 16 in
  iter t (fun ~kind ~ts_us ~node ~a ~b ->
      let sub = kind_sub kind in
      let row = (node, Subsystem.to_int sub) in
      let open_ = Option.value ~default:0 (Hashtbl.find_opt depth row) in
      let args = args ~kind ~a ~b in
      if kind = k_ccs_offset then Hashtbl.replace offset node a;
      let args =
        match Hashtbl.find_opt offset node with
        | Some off when kind = k_ccs_settle ->
            Hashtbl.remove offset node;
            args @ [ ("offset_us", off) ]
        | _ -> args
      in
      let event ph =
        f ~ph ~ts_ns:(ts_us * 1000) ~pid:node ~sub ~name:(span_name kind) ~args
      in
      match desc kind with
      | _, _, _, _, Opens _ ->
          Hashtbl.replace depth row (open_ + 1);
          event Trace.Begin
      | _, _, _, _, Closes _ when open_ > 0 ->
          Hashtbl.replace depth row (open_ - 1);
          event Trace.End
      | _, _, _, _, Closes _ -> ()
      | _, _, _, _, Instant -> event Trace.Instant)
