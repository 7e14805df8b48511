(* Wall-time attribution: where do the real seconds of a big simulation
   go?  Each instrumented region is a {e site} — one constructor of the
   closed [site] variant, naming a (subsystem, probe) pair — and an
   enabled recorder accumulates {e self} wall nanoseconds per site: the
   time between [enter] and [leave] minus the time spent in nested
   attributed regions.  Summing the self times of every site therefore
   never double-counts, and the gap between a run's total wall time and
   the attributed total is the un-instrumented remainder (engine loop,
   GC, harness).

   The design constraints mirror the rest of [lib/obs]:
   - disabled (the default) costs one field load and one predictable
     branch per site boundary ([Sink.attr_enter]/[attr_leave] match on
     the option);
   - enabled costs two monotonic-clock reads plus flat array arithmetic
     per region — no allocation after warm-up, so attribution does not
     distort the allocation behaviour it is pointed at;
   - everything is wall time, deliberately outside the simulated-time
     plane: attribution answers "where do the 238 wall seconds go", a
     question simulated time cannot see. *)

type site =
  | Netsim_deliver
  | Netsim_deliver_batch
  | Netsim_broadcast_many
  | Totem_token
  | Totem_regular
  | Totem_join
  | Totem_commit
  | Totem_offer
  | Totem_request
  | Totem_done
  | Totem_presence
  | Gcs_ring_view
  | Ccs_on_message
  | Rpc_reply
  | Repl_deliver
  | Hier_tick
  | Hier_bridge
  | Scenario_form_poll

let sites =
  [
    Netsim_deliver;
    Netsim_deliver_batch;
    Netsim_broadcast_many;
    Totem_token;
    Totem_regular;
    Totem_join;
    Totem_commit;
    Totem_offer;
    Totem_request;
    Totem_done;
    Totem_presence;
    Gcs_ring_view;
    Ccs_on_message;
    Rpc_reply;
    Repl_deliver;
    Hier_tick;
    Hier_bridge;
    Scenario_form_poll;
  ]

let n_sites = List.length sites

(* (index, subsystem, probe name); the indices are dense, in [sites]
   order *)
let info = function
  | Netsim_deliver -> (0, Subsystem.Netsim, "deliver")
  | Netsim_deliver_batch -> (1, Subsystem.Netsim, "deliver-batch")
  | Netsim_broadcast_many -> (2, Subsystem.Netsim, "broadcast-many")
  | Totem_token -> (3, Subsystem.Totem, "token")
  | Totem_regular -> (4, Subsystem.Totem, "regular")
  | Totem_join -> (5, Subsystem.Totem, "m-join")
  | Totem_commit -> (6, Subsystem.Totem, "m-commit")
  | Totem_offer -> (7, Subsystem.Totem, "m-offer")
  | Totem_request -> (8, Subsystem.Totem, "m-request")
  | Totem_done -> (9, Subsystem.Totem, "m-done")
  | Totem_presence -> (10, Subsystem.Totem, "m-presence")
  | Gcs_ring_view -> (11, Subsystem.Gcs, "ring-view")
  | Ccs_on_message -> (12, Subsystem.Ccs, "on-message")
  | Rpc_reply -> (13, Subsystem.Rpc, "reply")
  | Repl_deliver -> (14, Subsystem.Repl, "deliver")
  | Hier_tick -> (15, Subsystem.Hier, "tick")
  | Hier_bridge -> (16, Subsystem.Hier, "bridge")
  | Scenario_form_poll -> (17, Subsystem.Scenario, "form-poll")

let index s =
  let i, _, _ = info s in
  i

let sub s =
  let _, sub, _ = info s in
  sub

let name s =
  let _, _, name = info s in
  name

type t = {
  self_ns : float array; (* indexed by [index site] *)
  calls : int array;
  (* explicit region stack, parallel arrays so a push allocates nothing *)
  mutable fr_site : int array;
  mutable fr_t0 : int array; (* monotonic ns at enter *)
  mutable fr_child : int array; (* ns consumed by nested regions *)
  mutable depth : int;
}

let now_ns () =
  Int64.to_int (Monotonic_clock.now ())
[@@ctslint.allow
  "wall-clock"
    "this wrapper IS the declared clock boundary for attribution, which \
     measures real elapsed time by definition; the numbers only ever flow \
     into operator reports, never back into simulated state"]

let create () =
  {
    self_ns = Array.make n_sites 0.;
    calls = Array.make n_sites 0;
    fr_site = Array.make 64 0;
    fr_t0 = Array.make 64 0;
    fr_child = Array.make 64 0;
    depth = 0;
  }

let grow_int a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let enter t s =
  let d = t.depth in
  if d = Array.length t.fr_site then begin
    let cap = 2 * d in
    t.fr_site <- grow_int t.fr_site cap 0;
    t.fr_t0 <- grow_int t.fr_t0 cap 0;
    t.fr_child <- grow_int t.fr_child cap 0
  end;
  Array.unsafe_set t.fr_site d (index s);
  Array.unsafe_set t.fr_child d 0;
  t.depth <- d + 1;
  (* read the clock last, so stack bookkeeping is not charged to us *)
  Array.unsafe_set t.fr_t0 d (now_ns ())

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  if d < 0 then invalid_arg "Obs.Attrib.leave: no open region";
  t.depth <- d;
  let s = Array.unsafe_get t.fr_site d in
  let el = stop - Array.unsafe_get t.fr_t0 d in
  Array.unsafe_set t.self_ns s
    (Array.unsafe_get t.self_ns s
    +. float_of_int (el - Array.unsafe_get t.fr_child d));
  Array.unsafe_set t.calls s (Array.unsafe_get t.calls s + 1);
  if d > 0 then
    Array.unsafe_set t.fr_child (d - 1)
      (Array.unsafe_get t.fr_child (d - 1) + el)

type row = {
  sub : Subsystem.t;
  probe : string;
  calls : int;
  self_ns : float;
}

let report (t : t) =
  List.filter_map
    (fun s ->
      let i = index s in
      if t.calls.(i) > 0 then
        Some
          {
            sub = sub s;
            probe = name s;
            calls = t.calls.(i);
            self_ns = t.self_ns.(i);
          }
      else None)
    sites
  |> List.sort (fun a b -> Float.compare b.self_ns a.self_ns)

let total_ns (t : t) = Array.fold_left ( +. ) 0. t.self_ns

let reset (t : t) =
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0.;
  Array.fill t.calls 0 (Array.length t.calls) 0;
  t.depth <- 0

let pp ppf t =
  let rows = report t in
  let total = total_ns t in
  Format.fprintf ppf "%-10s %-18s %12s %12s %8s@." "subsystem" "probe"
    "calls" "self(ms)" "share";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-18s %12d %12.1f %7.1f%%@."
        (Subsystem.name r.sub) r.probe r.calls (r.self_ns /. 1e6)
        (if total > 0. then 100. *. r.self_ns /. total else 0.))
    rows;
  Format.fprintf ppf "%-10s %-18s %12s %12.1f@." "(total" "attributed)" ""
    (total /. 1e6)

let to_json t =
  let rows = report t in
  let b = Buffer.create 256 in
  Buffer.add_char b '[';
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b
        (Printf.sprintf
           "{\"sub\": \"%s\", \"probe\": \"%s\", \"calls\": %d, \
            \"self_ms\": %.3f}"
           (Subsystem.name r.sub) r.probe r.calls (r.self_ns /. 1e6)))
    rows;
  Buffer.add_char b ']';
  Buffer.contents b
