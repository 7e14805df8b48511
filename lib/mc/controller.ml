module Span = Dsim.Time.Span

type random_cfg = { seed : int64; delay_prob : float; reorder_prob : float }

type spec = {
  forced : Schedule.t;
  random : random_cfg option;
  quantum : Span.t;
}

let default_spec =
  { forced = []; random = None; quantum = Span.of_us 200 }

let replay_spec ?(quantum = default_spec.quantum) sched =
  { forced = sched; random = None; quantum }

type t = {
  eng : Dsim.Engine.t;
  forced_reorder : (int, int) Hashtbl.t; (* step -> take *)
  forced_delay : (int, unit) Hashtbl.t; (* packet -> () *)
  no_forced : bool; (* both tables empty: skip the per-step lookups *)
  random : (Dsim.Rng.t * random_cfg) option;
  quantum : Span.t;
  mutable steps : int;
  mutable packets : int;
  mutable tie_steps : (int * int) list; (* (step, ready), reversed *)
  mutable applied : Schedule.t; (* reversed (chronological when restored) *)
}

let create eng spec =
  (* Sized to the spec: random exploration creates a controller per run
     with an empty [forced] list, and two 16-bucket tables per run is
     pure garbage. *)
  let size = 1 + List.length spec.forced in
  let forced_reorder = Hashtbl.create size in
  let forced_delay = Hashtbl.create size in
  List.iter
    (function
      | Schedule.Reorder { step; take } ->
          Hashtbl.replace forced_reorder step take
      | Schedule.Delay { packet } -> Hashtbl.replace forced_delay packet ())
    spec.forced;
  {
    eng;
    forced_reorder;
    forced_delay;
    no_forced = spec.forced = [];
    random = Option.map (fun rc -> (Dsim.Rng.create rc.seed, rc)) spec.random;
    quantum = spec.quantum;
    steps = 0;
    packets = 0;
    tie_steps = [];
    applied = [];
  }

(* Preallocated: the overwhelmingly common answer, returned once per
   engine event — allocating it per step would dominate the controller's
   footprint. *)
let take_0 = Dsim.Engine.Take 0

(* Engine choice point: which of the [ready] same-timestamp events runs
   next.  Called on every step so that step indices are stable across
   replays; only ties (ready > 1) are real choices. *)
let on_step t ~ready =
  let step = t.steps in
  t.steps <- t.steps + 1;
  if ready > 1 then t.tie_steps <- (step, ready) :: t.tie_steps;
  let random_take () =
    match t.random with
    | Some (rng, rc) ->
        (* Always draw, so the stream does not depend on [ready]. *)
        let r = Dsim.Rng.float rng 1.0 in
        if ready > 1 && r < rc.reorder_prob then
          Dsim.Rng.int_range rng 1 (ready - 1)
        else 0
    | None -> 0
  in
  let take =
    (* Random exploration leaves the forced tables empty; hashing every
       step index through them shows up in profiles, so skip the lookup
       outright on that path. *)
    if t.no_forced then random_take ()
    else
      match Hashtbl.find_opt t.forced_reorder step with
      | Some i -> min i (ready - 1)
      | None -> random_take ()
  in
  if take > 0 then begin
    t.applied <- Schedule.Reorder { step; take } :: t.applied;
    Dsim.Engine.Take take
  end
  else take_0

(* Network choice point: hold this packet back by one quantum, or not. *)
let on_packet t ~src:_ ~dst:_ =
  let packet = t.packets in
  t.packets <- t.packets + 1;
  let delay =
    ((not t.no_forced) && Hashtbl.mem t.forced_delay packet)
    ||
    match t.random with
    | Some (rng, rc) -> Dsim.Rng.float rng 1.0 < rc.delay_prob
    | None -> false
  in
  if delay then begin
    t.applied <- Schedule.Delay { packet } :: t.applied;
    t.quantum
  end
  else Span.zero

let install t =
  Dsim.Engine.set_scheduler t.eng (Some (fun ~ready -> on_step t ~ready))

let watch t net =
  Netsim.Network.set_delay_hook net
    (Some (fun ~src ~dst -> on_packet t ~src ~dst))

let uninstall t = Dsim.Engine.set_scheduler t.eng None
let unwatch net = Netsim.Network.set_delay_hook net None
let applied t = List.rev t.applied
let steps t = t.steps
let packets t = t.packets
let tie_steps t = List.rev t.tie_steps
