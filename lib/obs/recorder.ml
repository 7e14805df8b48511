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
(* Record kinds.  Adding a kind means extending [kind_name],
   [kind_sub] and [arg_names] below (plus [span_phase] for a span
   boundary) — every consumer decodes through these tables only. *)

let k_step = 0
let k_fiber_spawn = 1
let k_fiber_switch = 2
let k_send = 3
let k_deliver = 4
let k_drop = 5
let k_token = 6
let k_gather = 7
let k_operational = 8
let k_view = 9
let k_ccs_open = 10
let k_ccs_settle = 11
let k_ccs_suppress = 12
let k_ccs_discard = 13
let k_gc_sample = 14
let k_hier_round = 15
let k_hier_correct = 16
let k_hier_elect = 17
let k_ccs_offset = 18
let k_rpc_begin = 19
let k_rpc_end = 20
let k_repl_request = 21
let k_repl_checkpoint = 22
let k_bridge_open = 23
let k_bridge_close = 24
let kind_count = 25

let kind_name = function
  | 0 -> "step"
  | 1 -> "fiber-spawn"
  | 2 -> "fiber-switch"
  | 3 -> "send"
  | 4 -> "deliver"
  | 5 -> "drop"
  | 6 -> "token"
  | 7 -> "gather"
  | 8 -> "operational"
  | 9 -> "view"
  | 10 -> "ccs-open"
  | 11 -> "ccs-settle"
  | 12 -> "ccs-suppress"
  | 13 -> "ccs-discard"
  | 14 -> "gc-sample"
  | 15 -> "hier-round"
  | 16 -> "hier-correct"
  | 17 -> "hier-elect"
  | 18 -> "ccs-offset"
  | 19 -> "rpc-begin"
  | 20 -> "rpc-end"
  | 21 -> "repl-request"
  | 22 -> "repl-checkpoint"
  | 23 -> "bridge-open"
  | 24 -> "bridge-close"
  | _ -> "?"

let kind_sub = function
  | 0 | 1 | 2 -> Subsystem.Dsim
  | 3 | 4 | 5 -> Subsystem.Netsim
  | 6 | 7 | 8 -> Subsystem.Totem
  | 9 -> Subsystem.Gcs
  | 10 | 11 | 12 | 13 | 14 | 18 -> Subsystem.Ccs
  | 15 | 16 | 17 | 23 | 24 -> Subsystem.Hier
  | 19 | 20 -> Subsystem.Rpc
  | 21 | 22 -> Subsystem.Repl
  | _ -> Subsystem.Scenario

(* Names of the [a] / [b] payloads per kind ("" = unused). *)
let arg_names = function
  | 0 -> ("at_us", "")
  | 1 -> ("fiber", "")
  | 2 -> ("fiber", "")
  | 3 -> ("dst", "")
  | 4 -> ("src", "pos")
  | 5 -> ("src", "reason")
  | 6 -> ("seq", "aru")
  | 7 -> ("members", "")
  | 8 -> ("gen", "members")
  | 9 -> ("members", "primary")
  | 10 -> ("round", "thread")
  | 11 -> ("round", "adjustment_us")
  | 12 -> ("round", "")
  | 13 -> ("round", "")
  | 14 -> ("gc_us", "thread")
  | 15 -> ("round", "")
  | 16 -> ("round", "ahead_us")
  | 17 -> ("shard", "gateway")
  | 18 -> ("offset_us", "adjustment_us")
  | 19 -> ("seq", "")
  | 20 -> ("latency_us", "timeout")
  | 21 -> ("index", "")
  | 22 -> ("upto", "applied")
  | 23 -> ("round", "")
  | 24 -> ("round", "offers")
  | _ -> ("a", "b")

(* Span boundaries: each Begin kind is closed by one End kind of the
   same subsystem, and the pair renders as one named span. *)
let span_phase = function
  | 10 | 19 | 23 -> Trace.Begin
  | 11 | 20 | 24 -> Trace.End
  | _ -> Trace.Instant

let span_name = function
  | 10 | 11 -> "ccs-round"
  | 19 | 20 -> "rpc"
  | 23 | 24 -> "bridge-round"
  | k -> kind_name k

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

let args ~kind ~a ~b =
  if kind = k_drop then
    let pos = (b lsr 2) - 1 in
    let common = [ ("src", a); ("reason", b land 3) ] in
    if pos < 0 then common else common @ [ ("pos", pos) ]
  else
    let an, bn = arg_names kind in
    if bn = "" then [ (an, a) ] else [ (an, a); (bn, b) ]

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
let trace_of ~length iter =
  let tr = Trace.create ~capacity:(length + 16) () in
  let depth = Hashtbl.create 16 and offset = Hashtbl.create 16 in
  iter (fun ~kind ~ts_us ~node ~a ~b ->
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
      let record ph =
        Trace.record tr ~ph ~ts_ns:(ts_us * 1000) ~pid:node ~sub
          ~name:(span_name kind) ~args
      in
      match span_phase kind with
      | Trace.Begin ->
          Hashtbl.replace depth row (open_ + 1);
          record Trace.Begin
      | Trace.End when open_ > 0 ->
          Hashtbl.replace depth row (open_ - 1);
          record Trace.End
      | Trace.End -> ()
      | Trace.Instant -> record Trace.Instant);
  tr

let to_trace t = trace_of ~length:(length t) (iter t)
