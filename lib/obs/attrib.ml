(* Wall-time attribution: where do the real seconds of a big simulation
   go?  Each instrumented region is a {e site} — a (subsystem, probe)
   pair interned once at module-initialization time into a process-wide
   registry — and an enabled recorder accumulates {e self} wall
   nanoseconds per site: the time between [enter] and [leave] minus the
   time spent in nested attributed regions.  Summing the self times of
   every site therefore never double-counts, and the gap between a run's
   total wall time and the attributed total is the un-instrumented
   remainder (engine loop, GC, harness).

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

(* A site id: index into the process-wide registry below. *)
type site = int

let site_subs : Subsystem.t array ref = ref [||]
let site_names : string array ref = ref [||]

let n_sites = ref 0
[@@ctslint.domain_owned
  "append-only site registry, populated by module initializers before \
   any pool worker starts; workers only read it (via ensure_sites)"]

let site ~sub ~name : site =
  let rec find i =
    if i >= !n_sites then -1
    else if
      !site_names.(i) = name
      && Subsystem.to_int !site_subs.(i) = Subsystem.to_int sub
    then i
    else find (i + 1)
  in
  let existing = find 0 in
  if existing >= 0 then existing
  else begin
    let n = !n_sites in
    if n = Array.length !site_names then begin
      let cap = if n = 0 then 16 else 2 * n in
      let subs = Array.make cap Subsystem.Dsim in
      let names = Array.make cap "" in
      Array.blit !site_subs 0 subs 0 n;
      Array.blit !site_names 0 names 0 n;
      site_subs := subs;
      site_names := names
    end;
    !site_subs.(n) <- sub;
    !site_names.(n) <- name;
    n_sites := n + 1;
    n
  end

let site_subsystem (s : site) = !site_subs.(s)
let site_name (s : site) = !site_names.(s)

type t = {
  mutable self_ns : float array; (* indexed by site id *)
  mutable calls : int array;
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
    self_ns = Array.make (max 1 !n_sites) 0.;
    calls = Array.make (max 1 !n_sites) 0;
    fr_site = Array.make 64 0;
    fr_t0 = Array.make 64 0;
    fr_child = Array.make 64 0;
    depth = 0;
  }

let grow_int a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure_sites t =
  if Array.length t.self_ns < !n_sites then begin
    let f = Array.make !n_sites 0. in
    Array.blit t.self_ns 0 f 0 (Array.length t.self_ns);
    t.self_ns <- f;
    t.calls <- grow_int t.calls !n_sites 0
  end

let enter t (s : site) =
  let d = t.depth in
  if d = Array.length t.fr_site then begin
    let cap = 2 * d in
    t.fr_site <- grow_int t.fr_site cap 0;
    t.fr_t0 <- grow_int t.fr_t0 cap 0;
    t.fr_child <- grow_int t.fr_child cap 0
  end;
  Array.unsafe_set t.fr_site d s;
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
  ensure_sites t;
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

let report t =
  ensure_sites t;
  let rows = ref [] in
  for s = !n_sites - 1 downto 0 do
    if t.calls.(s) > 0 then
      rows :=
        {
          sub = site_subsystem s;
          probe = site_name s;
          calls = t.calls.(s);
          self_ns = t.self_ns.(s);
        }
        :: !rows
  done;
  List.sort (fun a b -> Float.compare b.self_ns a.self_ns) !rows

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
