(* Struct-of-arrays 4-ary min-heap.  The heap proper is three parallel
   [int] arrays — [at] (instant), [seq] (insertion order), [pidx]
   (payload-slot index) — so every sift step moves three immediates
   through arrays the compiler knows are unboxed: no write barrier, no
   pointer chasing, and the displaced element rides in registers.

   Payloads live OUTSIDE the heap, in two parallel lanes ([pfn]/[pv])
   indexed by a stable slot number that never moves while the entry
   sifts.  A slot is claimed from a free-slot stack on push and returned
   on pop, so the payload lanes double as the event-cell pool: steady
   state (push rate = pop rate) allocates nothing on the minor heap, and
   the two caml_modify calls per event (writing the payload pair) happen
   exactly once, at push — the sift loops touch only int arrays.  This
   replaces both the previous single boxed payload lane and the engine's
   pooled record cells (PR 3): the (fn, arg) pair the engine used to park
   in a recycled cell is now just the two payload lanes.

   Arity 4 rather than 2: the workload is pop-heavy (every pop sifts the
   displaced last element down from the root), and a 4-ary heap halves
   the sift depth at the cost of up to three extra int compares per
   level, which hit the same cache lines anyway.  Pop order is the strict
   [(at, seq)] minimum either way, so heap arity is unobservable.

   [at] is [Time.t = private int]; the [:> int] coercions below are free
   and let the sift loops compare instants as naked ints instead of
   calling [Time.compare] per level.

   Slots at heap index >= size are junk; payload slots are scrubbed with
   [nil] when vacated so popped payloads do not survive their pop.

   Pushes only ever grow the lanes.  Shrinking is explicit ([trim]), not
   triggered by size: a formation join storm drains from tens of
   thousands of events back to a few thousand on every 1 ms tick, and a
   size-triggered shrink would reallocate on each of those bursts. *)

type ('f, 'v) t = {
  mutable at : int array;
  mutable seq : int array;
  mutable pidx : int array;
  mutable pfn : 'f array; (* payload lane 1, by slot *)
  mutable pv : 'v array; (* payload lane 2, by slot *)
  mutable free : int array; (* stack of free payload slots *)
  mutable nfree : int;
  mutable size : int;
  mutable next_seq : int;
  mutable hwm : int;
      (* deepest the queue has ever been: backlog pressure at a glance *)
}

(* Written into dead payload slots, never read.  Storing an immediate in
   a pointer array is always sound. *)
let nil : unit -> 'a = fun () -> Obj.magic 0

let create ?(capacity = 0) () =
  {
    at = Array.make capacity 0;
    seq = Array.make capacity 0;
    pidx = Array.make capacity 0;
    pfn = Array.make capacity (nil ());
    pv = Array.make capacity (nil ());
    free = Array.init capacity (fun i -> capacity - 1 - i);
    nfree = capacity;
    size = 0;
    next_seq = 0;
    hwm = 0;
  }

(* (at, seq) earlier than heap slot [j]: primary key time, tie-break
   insertion order.  Pure int compares, inlined. *)
let lt_slot h (at : int) seq j =
  let aj = Array.unsafe_get h.at j in
  at < aj || (at = aj && seq < Array.unsafe_get h.seq j)

let set_slot h i at seq pidx =
  Array.unsafe_set h.at i at;
  Array.unsafe_set h.seq i seq;
  Array.unsafe_set h.pidx i pidx

let copy_slot h ~src ~dst =
  Array.unsafe_set h.at dst (Array.unsafe_get h.at src);
  Array.unsafe_set h.seq dst (Array.unsafe_get h.seq src);
  Array.unsafe_set h.pidx dst (Array.unsafe_get h.pidx src)

(* Float the hole at [i] towards the root until [(at, seq)] fits, then
   drop the element in. *)
let rec sift_up h i at seq pidx =
  if i > 0 then begin
    let parent = (i - 1) / 4 in
    if lt_slot h at seq parent then begin
      copy_slot h ~src:parent ~dst:i;
      sift_up h parent at seq pidx
    end
    else set_slot h i at seq pidx
  end
  else set_slot h i at seq pidx
[@@ctslint.hotpath]

(* [i] earlier than [j], both known < size. *)
let lt_u h i j =
  let ai = Array.unsafe_get h.at i and aj = Array.unsafe_get h.at j in
  ai < aj || (ai = aj && Array.unsafe_get h.seq i < Array.unsafe_get h.seq j)

(* Smallest of the up-to-four children starting at [c0]; caller
   guarantees [c0 < size].  Unrolled so no [ref] cell is allocated. *)
let min_child h c0 =
  let sz = h.size in
  let s = c0 in
  let j = c0 + 1 in
  let s = if j < sz && lt_u h j s then j else s in
  let j = c0 + 2 in
  let s = if j < sz && lt_u h j s then j else s in
  let j = c0 + 3 in
  if j < sz && lt_u h j s then j else s

(* Sink the hole at [i] towards the leaves until [(at, seq)] fits. *)
let rec sift_down h i at seq pidx =
  let c0 = (4 * i) + 1 in
  if c0 >= h.size then set_slot h i at seq pidx
  else begin
    let smallest = min_child h c0 in
    if lt_slot h at seq smallest then set_slot h i at seq pidx
    else begin
      copy_slot h ~src:smallest ~dst:i;
      sift_down h smallest at seq pidx
    end
  end
[@@ctslint.hotpath]

(* New payload slots start as [nil], like [create]'s: filling them with
   the payload being pushed would pin it in every free slot long after
   its pop. *)
let grow h =
  let cap = Array.length h.at in
  let cap' = if cap = 0 then 64 else 2 * cap in
  let int_grow a = Array.append a (Array.make (cap' - cap) 0) in
  h.at <- int_grow h.at;
  h.seq <- int_grow h.seq;
  h.pidx <- int_grow h.pidx;
  let pfn = Array.make cap' (nil ()) in
  Array.blit h.pfn 0 pfn 0 cap;
  h.pfn <- pfn;
  let pv = Array.make cap' (nil ()) in
  Array.blit h.pv 0 pv 0 cap;
  h.pv <- pv;
  (* new payload slots cap .. cap'-1 all start free *)
  let free = Array.make cap' 0 in
  Array.blit h.free 0 free 0 h.nfree;
  for s = cap to cap' - 1 do
    free.(h.nfree + s - cap) <- s
  done;
  h.free <- free;
  h.nfree <- h.nfree + (cap' - cap)

let push h (at : Time.t) fn v =
  if h.size = Array.length h.at then
    (grow h
    [@ctslint.allow
      "hotpath-alloc"
        "amortized capacity doubling; a steady-state push (pop rate = \
         push rate) never grows"]);
  (* claim a payload slot; the free stack is non-empty whenever
     size < capacity, because live slots and free slots partition
     [0, capacity) *)
  let nf = h.nfree - 1 in
  h.nfree <- nf;
  let slot = Array.unsafe_get h.free nf in
  Array.unsafe_set h.pfn slot fn;
  Array.unsafe_set h.pv slot v;
  let i = h.size in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.size <- i + 1;
  if h.size > h.hwm then h.hwm <- h.size;
  sift_up h i (at :> int) seq slot
[@@ctslint.hotpath]

let min_time_exn h =
  if h.size = 0 then invalid_arg "Event_queue.min_time_exn: empty";
  (Obj.magic (Array.unsafe_get h.at 0 : int) : Time.t)
[@@ctslint.hotpath]
(* sound: Time.t = private int, and slot 0 was stored from a Time.t *)

(* Release the root's payload slot (scrubbing both lanes) and restore the
   heap invariant.  Shared tail of every pop flavour. *)
let drop_min h slot =
  Array.unsafe_set h.pfn slot (nil ());
  Array.unsafe_set h.pv slot (nil ());
  Array.unsafe_set h.free h.nfree slot;
  h.nfree <- h.nfree + 1;
  let last = h.size - 1 in
  h.size <- last;
  if last > 0 then
    sift_down h 0
      (Array.unsafe_get h.at last)
      (Array.unsafe_get h.seq last)
      (Array.unsafe_get h.pidx last)
[@@ctslint.hotpath]

(* Remove the earliest event and call [fn v] — the engine's per-event
   fast path.  The entry is removed (and its slot scrubbed and freed)
   before the call, so the callback may push into this very queue, and
   the payload does not outlive the event. *)
let fire_min_exn h =
  if h.size = 0 then invalid_arg "Event_queue.fire_min_exn: empty";
  let slot = Array.unsafe_get h.pidx 0 in
  let fn = Array.unsafe_get h.pfn slot in
  let v = Array.unsafe_get h.pv slot in
  drop_min h slot;
  (fn v
  [@ctslint.allow
    "hotpath-alloc"
      "the handler call is the certified region's boundary: what each \
       handler allocates is its own account, audited at its definition"])
[@@ctslint.hotpath]

let pop_min_exn h =
  if h.size = 0 then invalid_arg "Event_queue.pop_min_exn: empty";
  let slot = Array.unsafe_get h.pidx 0 in
  let fn = Array.unsafe_get h.pfn slot in
  let v = Array.unsafe_get h.pv slot in
  drop_min h slot;
  (fn, v)

let pop h =
  if h.size = 0 then None
  else begin
    let at = min_time_exn h in
    let fn, v = pop_min_exn h in
    Some (at, fn, v)
  end

let peek_time h = if h.size = 0 then None else Some (min_time_exn h)
let length h = h.size
let is_empty h = h.size = 0
let high_water h = h.hwm
let reset_high_water h = h.hwm <- h.size

(* Equal-time entries form a subtree rooted at 0 (an entry at the minimum
   time forces all its ancestors to the minimum too), so counting can
   prune every subtree whose root is later: O(ready), not O(size). *)
let rec count_eq h at i acc =
  if i >= h.size || h.at.(i) <> at then acc
  else
    let c = 4 * i in
    count_eq h at (c + 4)
      (count_eq h at (c + 3)
         (count_eq h at (c + 2) (count_eq h at (c + 1) (acc + 1))))

let ready_count h = if h.size = 0 then 0 else count_eq h h.at.(0) 0 0

(* Remove the entry at heap index [i], restoring the heap invariant.  The
   element moved into the hole may need to travel either direction. *)
let remove_index h i =
  let slot = h.pidx.(i) in
  let fn = h.pfn.(slot) in
  let v = h.pv.(slot) in
  h.pfn.(slot) <- nil ();
  h.pv.(slot) <- nil ();
  h.free.(h.nfree) <- slot;
  h.nfree <- h.nfree + 1;
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let lat = h.at.(last) and lseq = h.seq.(last) and lp = h.pidx.(last) in
    (* The displaced element may belong above or below the hole; try the
       downward direction first, and if it never moved, float it up. *)
    sift_down h i lat lseq lp;
    if h.at.(i) = lat && h.seq.(i) = lseq then sift_up h i lat lseq lp
  end;
  (fn, v)

(* Indices of the ready set, pruned like [count_eq]; order unspecified. *)
let rec ready_indices h at i acc =
  if i >= h.size || h.at.(i) <> at then acc
  else
    let c = 4 * i in
    ready_indices h at (c + 4)
      (ready_indices h at (c + 3)
         (ready_indices h at (c + 2) (ready_indices h at (c + 1) (i :: acc))))

let pop_nth h n =
  if h.size = 0 then None
  else if n <= 0 then pop h
  else begin
    let at = min_time_exn h in
    let by_seq =
      List.sort
        (fun a b -> compare h.seq.(a) h.seq.(b))
        (ready_indices h (h.at.(0)) 0 [])
    in
    let n = min n (List.length by_seq - 1) in
    let fn, v = remove_index h (List.nth by_seq n) in
    Some (at, fn, v)
  end

let clear h =
  let n = nil () in
  for i = 0 to h.size - 1 do
    let slot = h.pidx.(i) in
    h.pfn.(slot) <- n;
    h.pv.(slot) <- n;
    h.free.(h.nfree) <- slot;
    h.nfree <- h.nfree + 1
  done;
  h.size <- 0

(* Shrink every lane to the smallest power of two >= 2 x size (at least
   64), renumbering payload slots densely in heap order: heap index [i]
   gets slot [i], and the free stack hands out [size], [size + 1], ...
   next.  [(at, seq)] are copied untouched, so pop order cannot change.
   Never grows: a queue already that small is left as it is. *)
let trim h =
  let n = h.size in
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  let cap' = pow2 64 in
  if cap' < Array.length h.at then begin
    let int_lane a = Array.init cap' (fun i -> if i < n then a.(i) else 0) in
    let pfn = Array.make cap' (nil ()) and pv = Array.make cap' (nil ()) in
    for i = 0 to n - 1 do
      let slot = h.pidx.(i) in
      pfn.(i) <- h.pfn.(slot);
      pv.(i) <- h.pv.(slot)
    done;
    h.at <- int_lane h.at;
    h.seq <- int_lane h.seq;
    h.pidx <- Array.init cap' Fun.id;
    h.pfn <- pfn;
    h.pv <- pv;
    h.free <- Array.init cap' (fun i -> cap' - 1 - i);
    h.nfree <- cap' - n
  end
