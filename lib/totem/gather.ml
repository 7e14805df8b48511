module Nid = Netsim.Node_id

(* Joins keyed by sender id: an int table hashes without a C call. *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i
end)

(* A sender's latest join and the listening period it arrived in. *)
type entry = { join : Wire.join; period : int }

type t = {
  me : Nid.t;
  mutable proc : Bits.t;
  mutable fail : Bits.t;
  mutable live_n : int;
  joins : entry Tbl.t;
  mutable agree_n : int; (* live candidates whose latest join agrees *)
  mutable period : int; (* consensus deadlines passed *)
}

let proc_set t = t.proc
let fail_set t = t.fail
let live t = Bits.diff t.proc t.fail
let is_live t p = Bits.mem p t.proc && not (Bits.mem p t.fail)

(* Exact for live senders, whose sets are subsets of the local ones (see
   the .mli). *)
let agrees t (j : Wire.join) =
  Bits.cardinal j.proc_set = Bits.cardinal t.proc
  && Bits.cardinal j.fail_set = Bits.cardinal t.fail

(* The local sets grew strictly.  Every stored join of a live sender is a
   subset of the old sets, so now has a smaller cardinality than one of
   them and cannot agree: only [just], the join that made them grow, can. *)
let grown t ~just =
  t.live_n <- Bits.diff_cardinal t.proc t.fail;
  t.agree_n <-
    (match just with
    | Some (j : Wire.join) when is_live t j.j_sender && agrees t j -> 1
    | Some _ | None -> 0)

let create ~me ~proc ~fail =
  let proc = Bits.add me proc and fail = Bits.remove me fail in
  {
    me;
    proc;
    fail;
    live_n = Bits.diff_cardinal proc fail;
    joins = Tbl.create 8;
    agree_n = 0;
    period = 0;
  }

let merge t (j : Wire.join) =
  let p = j.j_sender in
  let key = Nid.to_int p in
  let was =
    match Tbl.find_opt t.joins key with
    | Some e -> agrees t e.join
    | None -> false
  in
  Tbl.replace t.joins key { join = j; period = t.period };
  let grew_proc = not (Bits.subset j.proc_set t.proc) in
  if grew_proc then t.proc <- Bits.union t.proc j.proc_set;
  (* A sender that has failed this node can never agree with it: fail it
     back instead of adopting its view of who else is dead. *)
  let fail =
    if Bits.mem t.me j.fail_set then Bits.add p t.fail
    else if Bits.subset j.fail_set t.fail then t.fail
    else Bits.union t.fail j.fail_set
  in
  let grew_fail = Bits.cardinal fail > Bits.cardinal t.fail in
  t.fail <- fail;
  if grew_proc || grew_fail then begin
    grown t ~just:(Some j);
    true
  end
  else begin
    if is_live t p then
      t.agree_n <- t.agree_n + Bool.to_int (agrees t j) - Bool.to_int was;
    false
  end

(* A join from a node this attempt has failed is ignored: the node is no
   candidate, and its view of who is dead must not spread. *)
let absorb t (j : Wire.join) =
  if Bits.mem j.j_sender t.fail then false else merge t j

let fail t nodes =
  let nodes = Bits.remove t.me nodes in
  if not (Bits.subset nodes t.fail) then begin
    t.fail <- Bits.union t.fail nodes;
    grown t ~just:None
  end

let find t p =
  match Tbl.find_opt t.joins (Nid.to_int p) with
  | Some e -> Some e.join
  | None -> None

let deadline t =
  let heard p =
    match Tbl.find_opt t.joins (Nid.to_int p) with
    | Some e -> e.period = t.period
    | None -> false
  in
  let silent = Bits.filter (fun p -> not (heard p)) (live t) in
  t.period <- t.period + 1;
  silent

let agreed t = t.agree_n = t.live_n
