(* One checker over the record stream.  Shaped like a TLA+ spec: the
   state variables are the fields of [t] (per-node records, per-round
   tables, the token watchdog), [step] is one action per record kind,
   and every violation is a deduplicated verdict that names the index
   of its first witnessing record.  The state is plain data: arrays
   grown on first sight of a node, round or thread, and one Hashtbl
   used point-wise, never iterated. *)

type verdict = {
  inv : string;
  at : int;
  mutable first_us : int;
  mutable last_us : int;
  mutable count : int;
  mutable worst : int;
  mutable node : int;
}

type config = {
  skew_bound_us : int;
  token_timeout_us : int;
  staleness_us : int;
  one_ring : bool;
}

let default_config =
  {
    skew_bound_us = 0;
    token_timeout_us = 10_000;
    staleness_us = 5_000;
    one_ring = true;
  }

let properties =
  [ "monotone"; "agreement"; "single-synchronizer"; "skew-envelope";
    "token-liveness"; "membership-agreement" ]

let unseen = min_int

(* The state of one node. *)
type node = {
  mutable by_thread : int array;
      (* last group-clock sample per thread id, µs ([unseen] = none) *)
  mutable gc_us : int; (* last sample of any thread, and ... *)
  mutable seen_us : int; (* ... the simulated time it was taken *)
  mutable reads : int; (* application reads *)
  mutable out_of_seq : int; (* index of the first read out of sequence *)
  mutable last_read : int; (* index of the latest read *)
  mutable decisions : int; (* proposals + suppressions naming no round *)
  mutable crashed : bool;
}

type t = {
  cfg : config;
  mutable stepped : int; (* records stepped = index of the next one *)
  mutable verdicts : verdict list; (* newest first *)
  mutable nodes : node option array;
  (* token watchdog: a record later than [alarm_us] finds the ring
     silent; [max_int] = disarmed (no token yet, or already alarmed) *)
  mutable alarm_us : int;
  mutable last_token_us : int;
  mutable last_token_node : int;
  (* membership agreement: generation -> member count first seen *)
  gen_members : (int, int) Hashtbl.t;
  (* agreement: per round, the first read's value, ns ([unseen] = none) *)
  mutable round_value : int array;
  mutable rounds_read : int; (* distinct rounds read *)
  mutable last_read : int; (* index of the latest read of any node *)
  mutable last_read_us : int;
  mutable sent : int; (* proposals not retracted, all nodes *)
}

let create ?(config = default_config) () =
  {
    cfg = config;
    stepped = 0;
    verdicts = [];
    nodes = [||];
    alarm_us = max_int;
    last_token_us = unseen;
    last_token_node = -1;
    gen_members = Hashtbl.create 16;
    round_value = [||];
    rounds_read = 0;
    last_read = -1;
    last_read_us = 0;
    sent = 0;
  }

let verdicts t = List.rev t.verdicts

(* [arr] grown (doubling) to hold index [i], new slots [fill]. *)
let cover arr i fill =
  let len = Array.length arr in
  let bigger = Array.make (max (i + 1) (2 * len)) fill in
  Array.blit arr 0 bigger 0 len;
  bigger

let state_of t n =
  if n >= Array.length t.nodes then t.nodes <- cover t.nodes n None;
  match t.nodes.(n) with
  | Some s -> s
  | None ->
      let s =
        { by_thread = [||]; gc_us = unseen; seen_us = unseen; reads = 0;
          out_of_seq = -1; last_read = -1; decisions = 0; crashed = false }
      in
      t.nodes.(n) <- Some s;
      s

let raise_verdict t ~inv ~at ~ts_us ~node ~worst =
  match List.find_opt (fun v -> v.inv = inv) t.verdicts with
  | Some v ->
      v.count <- v.count + 1;
      v.last_us <- ts_us;
      if worst > v.worst then begin
        v.worst <- worst;
        v.node <- node
      end
  | None ->
      t.verdicts <-
        { inv; at; first_us = ts_us; last_us = ts_us; count = 1; worst; node }
        :: t.verdicts

(* --- actions, one per record kind ---------------------------------- *)

let gc_sample t ~at ~ts_us ~node:n ~gc_us ~thread =
  let s = state_of t n in
  if thread >= Array.length s.by_thread then
    s.by_thread <- cover s.by_thread thread unseen;
  let last = s.by_thread.(thread) in
  if last <> unseen && gc_us < last then
    raise_verdict t ~inv:"monotone" ~at ~ts_us ~node:n ~worst:(last - gc_us);
  s.by_thread.(thread) <- gc_us;
  s.gc_us <- gc_us;
  s.seen_us <- ts_us;
  if t.cfg.skew_bound_us > 0 then begin
    (* spread of (gc - sim time) offsets over non-stale nodes *)
    let lo = ref max_int and hi = ref min_int and hi_node = ref n in
    for i = 0 to Array.length t.nodes - 1 do
      match t.nodes.(i) with
      | Some s when s.seen_us <> unseen && ts_us - s.seen_us <= t.cfg.staleness_us
        ->
          let off = s.gc_us - s.seen_us in
          if off < !lo then lo := off;
          if off > !hi then begin
            hi := off;
            hi_node := i
          end
      | _ -> ()
    done;
    if !hi > !lo && !hi - !lo > t.cfg.skew_bound_us then
      raise_verdict t ~inv:"skew-envelope" ~at ~ts_us ~node:!hi_node
        ~worst:(!hi - !lo)
  end

let operational t ~at ~ts_us ~node ~gen ~members =
  match Hashtbl.find_opt t.gen_members gen with
  | None -> Hashtbl.add t.gen_members gen members
  | Some m ->
      if m <> members then
        raise_verdict t ~inv:"membership-agreement" ~at ~ts_us ~node
          ~worst:(abs (m - members))

let read t ~at ~ts_us ~node:n ~value ~round =
  let s = state_of t n in
  s.reads <- s.reads + 1;
  if round <> s.reads && s.out_of_seq < 0 then s.out_of_seq <- at;
  s.last_read <- at;
  t.last_read <- at;
  t.last_read_us <- ts_us;
  if round >= Array.length t.round_value then
    t.round_value <- cover t.round_value round unseen;
  if t.round_value.(round) = unseen then begin
    t.round_value.(round) <- value;
    t.rounds_read <- t.rounds_read + 1
  end
  else if value <> t.round_value.(round) then
    raise_verdict t ~inv:"agreement" ~at ~ts_us ~node:n
      ~worst:(abs (value - t.round_value.(round)))

(* The watchdog ticks on every record: simulated time only advances
   when something happens, so any record is a chance to notice that the
   token has gone quiet. *)
let silence t ~at ~ts_us =
  t.alarm_us <- max_int;
  raise_verdict t ~inv:"token-liveness" ~at ~ts_us ~node:t.last_token_node
    ~worst:(ts_us - t.last_token_us)

let act t ~at ~kind ~ts_us ~node ~a ~b =
  if kind = Recorder.k_gc_sample then
    gc_sample t ~at ~ts_us ~node ~gc_us:a ~thread:b
  else if kind = Recorder.k_token then begin
    t.last_token_us <- ts_us;
    t.last_token_node <- node;
    if t.cfg.token_timeout_us > 0 then
      t.alarm_us <- ts_us + t.cfg.token_timeout_us
  end
  else if not t.cfg.one_ring then ()
  else if kind = Recorder.k_read then read t ~at ~ts_us ~node ~value:a ~round:b
  else if kind = Recorder.k_ccs_propose then begin
    let s = state_of t node in
    s.decisions <- s.decisions + 1;
    t.sent <- t.sent + 1
  end
  else if kind = Recorder.k_ccs_suppress then begin
    (* a suppression naming its round is the token-level retraction of
       this node's own proposal; one naming none is a decision *)
    if a < 0 then
      let s = state_of t node in
      s.decisions <- s.decisions + 1
    else t.sent <- t.sent - 1
  end
  else if kind = Recorder.k_crash then (state_of t node).crashed <- true
  else if kind = Recorder.k_operational then
    operational t ~at ~ts_us ~node ~gen:a ~members:b

(* The record kinds with an action.  Most records (fibers, packets) have
   none and only tick the watchdog: one bit test and one comparison. *)
let judged =
  List.fold_left
    (fun set k -> set lor (1 lsl k))
    0
    Recorder.
      [ k_gc_sample; k_token; k_read; k_ccs_propose; k_ccs_suppress; k_crash;
        k_operational ]

let step t ~kind ~ts_us ~node ~a ~b =
  let at = t.stepped in
  t.stepped <- at + 1;
  if judged land (1 lsl kind) <> 0 then act t ~at ~kind ~ts_us ~node ~a ~b;
  if ts_us > t.alarm_us then silence t ~at ~ts_us

let finish t =
  if t.cfg.one_ring then begin
    let sync ~at ~node ~worst =
      raise_verdict t ~inv:"single-synchronizer" ~at ~ts_us:t.last_read_us ~node
        ~worst
    in
    Array.iteri
      (fun n -> function
        | Some s when s.reads > 0 && not s.crashed ->
            if s.out_of_seq >= 0 then sync ~at:s.out_of_seq ~node:n ~worst:0
            else if s.decisions <> s.reads then
              sync ~at:s.last_read ~node:n ~worst:(abs (s.reads - s.decisions))
        | _ -> ())
      t.nodes;
    if t.rounds_read > 0 && t.sent < t.rounds_read then
      sync ~at:t.last_read ~node:(-1) ~worst:(t.rounds_read - t.sent)
  end

let pp_verdict ppf v =
  Format.fprintf ppf
    "%-20s first %d us, last %d us, count %d, worst %d (node %d), record %d"
    v.inv v.first_us v.last_us v.count v.worst v.node v.at
