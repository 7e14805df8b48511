module Nid = Netsim.Node_id
module Set = Netsim.Node_id.Set

(* A sender's latest join, with the ints its agreement test needs. *)
type entry = {
  join : Wire.join;
  proc_n : int;
  fail_n : int;
  period : int; (* the listening period it arrived in *)
}

type t = {
  me : Nid.t;
  mutable proc : Set.t;
  mutable fail : Set.t;
  mutable proc_n : int;
  mutable fail_n : int;
  mutable live_n : int;
  joins : (Nid.t, entry) Hashtbl.t;
  mutable agree_n : int; (* live candidates whose [entry] agrees *)
  mutable period : int; (* consensus deadlines passed *)
}

let proc_set t = t.proc
let fail_set t = t.fail
let live t = Set.diff t.proc t.fail
let is_live t p = Set.mem p t.proc && not (Set.mem p t.fail)

(* Exact for live senders, whose sets are subsets of the local ones (see
   the .mli). *)
let agrees t (e : entry) = e.proc_n = t.proc_n && e.fail_n = t.fail_n

let entry_agrees t p =
  match Hashtbl.find_opt t.joins p with Some e -> agrees t e | None -> false

(* The local sets changed: every cached verdict is void. *)
let recount t =
  t.proc_n <- Set.cardinal t.proc;
  t.fail_n <- Set.cardinal t.fail;
  let live = live t in
  t.live_n <- Set.cardinal live;
  t.agree_n <-
    Set.fold (fun p n -> if entry_agrees t p then n + 1 else n) live 0

let create ~me ~proc ~fail =
  let t =
    {
      me;
      proc = Set.add me proc;
      fail = Set.remove me fail;
      proc_n = 0;
      fail_n = 0;
      live_n = 0;
      joins = Hashtbl.create 8;
      agree_n = 0;
      period = 0;
    }
  in
  recount t;
  t

let merge t (j : Wire.join) =
  let p = j.j_sender in
  let e =
    {
      join = j;
      proc_n = Set.cardinal j.proc_set;
      fail_n = Set.cardinal j.fail_set;
      period = t.period;
    }
  in
  let was = entry_agrees t p in
  Hashtbl.replace t.joins p e;
  let grew_proc = not (Set.subset j.proc_set t.proc) in
  if grew_proc then t.proc <- Set.union t.proc j.proc_set;
  (* A sender that has failed this node can never agree with it: fail it
     back instead of adopting its view of who else is dead. *)
  let jfail =
    if Set.mem t.me j.fail_set then Set.singleton p else j.fail_set
  in
  let grew_fail = not (Set.subset jfail t.fail) in
  if grew_fail then t.fail <- Set.union t.fail jfail;
  if grew_proc || grew_fail then begin
    recount t;
    true
  end
  else begin
    if is_live t p then
      t.agree_n <- t.agree_n + Bool.to_int (agrees t e) - Bool.to_int was;
    false
  end

(* A join from a node this attempt has failed is ignored: the node is no
   candidate, and its view of who is dead must not spread. *)
let absorb t (j : Wire.join) =
  if Set.mem j.j_sender t.fail then false else merge t j

let fail t nodes =
  t.fail <- Set.union t.fail (Set.remove t.me nodes);
  recount t

let find t p =
  match Hashtbl.find_opt t.joins p with Some e -> Some e.join | None -> None

let deadline t =
  let heard p =
    match Hashtbl.find_opt t.joins p with
    | Some e -> e.period = t.period
    | None -> false
  in
  let silent = Set.filter (fun p -> not (heard p)) (live t) in
  t.period <- t.period + 1;
  silent

let agreed t = t.agree_n = t.live_n
