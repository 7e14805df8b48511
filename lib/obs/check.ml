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
  rings : int array;
}

let default_config =
  {
    skew_bound_us = 0;
    token_timeout_us = 10_000;
    rings = [||];
  }

(* Nodes whose last sample is older than this are out of the skew
   envelope. *)
let staleness_us = 5_000

let shard_skew_us = 5_000

let properties =
  [ "monotone"; "agreement"; "single-synchronizer"; "skew-envelope";
    "token-liveness"; "membership-agreement"; "no-global-regression";
    "deterministic-election"; "cross-shard-skew" ]

let unseen = min_int

(* The state of one ring: its CCS rounds and its gateway. *)
type ring = {
  mutable round_value : int array;
      (* per round, the first read's value, ns ([unseen] = none) *)
  mutable rounds_read : int; (* distinct rounds read *)
  mutable sent : int; (* proposals not retracted, all members *)
  mutable gateway : int; (* latest elected gateway, -1 = none yet *)
  mutable elected_at : int; (* index of its election record *)
}

(* The state of one node. *)
type node = {
  ring : ring;
  mutable by_thread : int array;
      (* last group-clock sample per thread id, µs ([unseen] = none) *)
  mutable gc_us : int; (* last sample of any thread, ... *)
  mutable seen_us : int; (* ... the simulated time it was taken, ... *)
  mutable sample_at : int; (* ... and its index *)
  mutable reads : int; (* application reads *)
  mutable out_of_seq : int; (* index of the first read out of sequence *)
  mutable last_read : int; (* index of the latest read *)
  mutable decisions : int; (* proposals + suppressions naming no round *)
  mutable in_round : bool; (* opened a round it has not read yet *)
  mutable crashed : bool;
  mutable hash : int; (* its reads, folded for [fingerprint] *)
  mutable scale : int;
}

type t = {
  cfg : config;
  mutable stepped : int; (* records stepped = index of the next one *)
  mutable verdicts : verdict list; (* newest first *)
  mutable nodes : node option array;
  rings : ring array; (* by ring index *)
  (* token watchdog: a record later than [alarm_us] finds the ring
     silent; [max_int] = disarmed (no token yet, or already alarmed) *)
  mutable alarm_us : int;
  mutable last_token_us : int;
  mutable last_token_node : int;
  (* membership agreement: ring id (rep, gen) -> member count first seen *)
  ring_members : (int, int) Hashtbl.t;
  mutable last_read : int; (* index of the latest read of any node *)
  mutable last_read_us : int;
}

let create ?(config = default_config) () =
  let ring _ =
    { round_value = [||]; rounds_read = 0; sent = 0; gateway = -1;
      elected_at = -1 }
  in
  {
    cfg = config;
    stepped = 0;
    verdicts = [];
    nodes = [||];
    rings = Array.init (1 + Array.fold_left max 0 config.rings) ring;
    alarm_us = max_int;
    last_token_us = unseen;
    last_token_node = -1;
    ring_members = Hashtbl.create 16;
    last_read = -1;
    last_read_us = 0;
  }

let verdicts t = List.rev t.verdicts

(* [arr] grown (doubling) to hold index [i], new slots [fill]. *)
let cover arr i fill =
  let len = Array.length arr in
  let bigger = Array.make (max (i + 1) (2 * len)) fill in
  Array.blit arr 0 bigger 0 len;
  bigger

let ring_of (cfg : config) n =
  if n < Array.length cfg.rings then cfg.rings.(n) else 0

let state_of t n =
  if n >= Array.length t.nodes then t.nodes <- cover t.nodes n None;
  match t.nodes.(n) with
  | Some s -> s
  | None ->
      let s =
        { ring = t.rings.(ring_of t.cfg n); by_thread = [||];
          gc_us = unseen; seen_us = unseen; sample_at = -1; reads = 0;
          out_of_seq = -1; last_read = -1; decisions = 0; in_round = false;
          crashed = false; hash = 0; scale = 1 }
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
  s.sample_at <- at;
  if t.cfg.skew_bound_us > 0 then begin
    (* spread of (gc - sim time) offsets over non-stale nodes *)
    let lo = ref max_int and hi = ref min_int and hi_node = ref n in
    for i = 0 to Array.length t.nodes - 1 do
      match t.nodes.(i) with
      | Some s when s.seen_us <> unseen && ts_us - s.seen_us <= staleness_us ->
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

let operational t ~at ~ts_us ~node ~gen ~b =
  let members = Recorder.operational_members b in
  (* the ring id (rep, gen) as one int, [rep] taking 20 bits *)
  let ring = (gen lsl 20) lor Recorder.operational_rep b in
  match Hashtbl.find_opt t.ring_members ring with
  | None -> Hashtbl.add t.ring_members ring members
  | Some m ->
      if m <> members then
        raise_verdict t ~inv:"membership-agreement" ~at ~ts_us ~node
          ~worst:(abs (m - members))

(* For [fingerprint], each node folds its reads' [(node, round, value)]
   into [hash] and keeps [prime ^ length] in [scale]; chaining the nodes
   in id order hashes the whole sequence. *)
let prime = 1_000_003
let mix h v = (h * prime) + (v land max_int)

(* Rounds are numbered per CCS group, so a read is compared only with
   the reads of its own ring. *)
let read t ~at ~ts_us ~node:n ~value ~round =
  let s = state_of t n in
  let g = s.ring in
  s.hash <- mix (mix (mix s.hash n) round) value;
  s.scale <- s.scale * prime * prime * prime;
  s.reads <- s.reads + 1;
  s.in_round <- false;
  if round <> s.reads && s.out_of_seq < 0 then s.out_of_seq <- at;
  s.last_read <- at;
  t.last_read <- at;
  t.last_read_us <- ts_us;
  if round >= Array.length g.round_value then
    g.round_value <- cover g.round_value round unseen;
  if g.round_value.(round) = unseen then begin
    g.round_value.(round) <- value;
    g.rounds_read <- g.rounds_read + 1
  end
  else if value <> g.round_value.(round) then
    raise_verdict t ~inv:"agreement" ~at ~ts_us ~node:n
      ~worst:(abs (value - g.round_value.(round)))

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
  else if kind = Recorder.k_read then read t ~at ~ts_us ~node ~value:a ~round:b
  else if kind = Recorder.k_ccs_propose then begin
    let s = state_of t node in
    s.decisions <- s.decisions + 1;
    s.ring.sent <- s.ring.sent + 1
  end
  else if kind = Recorder.k_ccs_suppress then begin
    (* a suppression naming its round is the token-level retraction of
       this node's own proposal; one naming none is a decision *)
    let s = state_of t node in
    if a < 0 then s.decisions <- s.decisions + 1
    else s.ring.sent <- s.ring.sent - 1
  end
  else if kind = Recorder.k_ccs_open then (state_of t node).in_round <- true
  else if kind = Recorder.k_crash then (state_of t node).crashed <- true
  else if kind = Recorder.k_operational then
    operational t ~at ~ts_us ~node ~gen:a ~b
  else if kind = Recorder.k_hier_elect then begin
    let g = (state_of t node).ring in
    g.gateway <- b;
    g.elected_at <- at
  end
  else if kind = Recorder.k_hier_clamp then
    raise_verdict t ~inv:"no-global-regression" ~at ~ts_us ~node ~worst:b

(* The record kinds with an action.  Most records (fibers, packets) have
   none and only tick the watchdog: one bit test and one comparison. *)
let judged =
  List.fold_left
    (fun set k -> set lor (1 lsl k))
    0
    Recorder.
      [ k_gc_sample; k_token; k_read; k_ccs_propose; k_ccs_suppress;
        k_ccs_open; k_crash; k_operational; k_hier_elect; k_hier_clamp ]

let step t ~kind ~ts_us ~node ~a ~b =
  let at = t.stepped in
  t.stepped <- at + 1;
  if judged land (1 lsl kind) <> 0 then act t ~at ~kind ~ts_us ~node ~a ~b;
  if ts_us > t.alarm_us then silence t ~at ~ts_us

let fingerprint t =
  Array.fold_left
    (fun acc -> function Some s -> (acc * s.scale) + s.hash | None -> acc)
    0 t.nodes

(* The properties judged on the settled run (see check.mli); a ring's
   members are the nodes the partition names and the nodes seen. *)
let finish t =
  let sync ~at ~node ~worst =
    raise_verdict t ~inv:"single-synchronizer" ~at ~ts_us:t.last_read_us
      ~node ~worst
  in
  let lowest = Array.make (Array.length t.rings) (-1) in
  let sampled = Array.make (Array.length t.rings) None in
  for n = 0 to max (Array.length t.cfg.rings) (Array.length t.nodes) - 1 do
    let r = ring_of t.cfg n in
    match if n < Array.length t.nodes then t.nodes.(n) else None with
    | Some s when s.crashed -> ()
    | None -> if lowest.(r) < 0 then lowest.(r) <- n
    | Some s ->
        if lowest.(r) < 0 then lowest.(r) <- n;
        if s.seen_us <> unseen && Option.is_none sampled.(r) then
          sampled.(r) <- Some (s.gc_us - s.seen_us, n, s);
        (* a round still open when the stream ends has its decision only *)
        let owed = s.reads + if s.in_round then 1 else 0 in
        if s.reads > 0 && s.out_of_seq >= 0 then
          sync ~at:s.out_of_seq ~node:n ~worst:0
        else if s.reads > 0 && s.decisions <> owed then
          sync ~at:s.last_read ~node:n ~worst:(abs (owed - s.decisions))
  done;
  Array.iteri
    (fun r g ->
      if g.rounds_read > 0 && g.sent < g.rounds_read then
        sync ~at:t.last_read ~node:(-1) ~worst:(g.rounds_read - g.sent);
      if g.gateway >= 0 && lowest.(r) >= 0 && lowest.(r) <> g.gateway then
        raise_verdict t ~inv:"deterministic-election" ~at:g.elected_at
          ~ts_us:t.last_read_us ~node:g.gateway ~worst:lowest.(r))
    t.rings;
  let offsets =
    List.filter_map Fun.id (Array.to_list sampled)
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  match (offsets, List.rev offsets) with
  | (lo, _, _) :: _, (hi, n, s) :: _ when hi - lo >= shard_skew_us ->
      raise_verdict t ~inv:"cross-shard-skew" ~at:s.sample_at ~ts_us:s.seen_us
        ~node:n ~worst:(hi - lo)
  | _ -> ()

let pp_verdict ppf v =
  Format.fprintf ppf
    "%-20s first %d us, last %d us, count %d, worst %d (node %d), record %d"
    v.inv v.first_us v.last_us v.count v.worst v.node v.at
