(* The explorer's one runner.  Every schedule of an exploration, whatever
   the strategy, is executed here, by [exec] on some worker domain; this
   is the only module that spawns domains. *)

(* One completed schedule, as recorded by whichever worker domain ran it:
   only what the merge and the next BFS level read, so a batch's results
   stay small while they wait for it.  Confirmation and shrinking of a
   violation happen later, sequentially, on the calling domain. *)
type run_result = {
  seed : int64;
  steps : int;
  fingerprint : int;
  violated : (string * Schedule.t) option;
  children : Controller.spec list;  (* the next BFS level's share *)
}

let exec ~reusable ~children cfg (seed, spec) =
  let rcfg = { cfg with Harness.seed = seed; record_packets = false } in
  let outcome, info = Harness.run_reused reusable ~spec rcfg in
  let violated =
    match Invariant.check_all outcome with
    | [] -> None
    | (name, _) :: _ -> Some (name, info.Harness.deviations)
  in
  {
    seed;
    steps = info.Harness.steps;
    fingerprint = info.Harness.fingerprint;
    violated;
    children = children spec info;
  }

(* Record a violation at index [i] so workers can stop spending time past
   it.  The minimum only ever decreases, and a worker skips an index only
   when it is strictly above the current minimum, so every index at or
   below the final minimum is guaranteed to have been executed — which is
   all the merge reads. *)
let note_violation min_viol i =
  let rec upd () =
    let cur = Atomic.get min_viol in
    if i < cur && not (Atomic.compare_and_set min_viol cur i) then upd ()
  in
  upd ()

(* Task [i] is a pure function of [i], so the frontier is just the index
   range [0, n), split into one contiguous shard per domain.  Each worker
   eats its own shard from the front in small batches; a worker whose
   shard runs dry steals the BACK half of the biggest surviving shard.
   The common case touches only the worker's own shard lock
   (uncontended), and stealing moves O(remaining/2) indices in O(1) by
   fiddling two bounds — the classic range-stealing deque, legal here
   because the work items are consecutive integers. *)
type shard = { mutable lo : int; mutable hi : int; sm : Mutex.t }

let shard_take_batch sh k =
  Mutex.lock sh.sm;
  let lo = sh.lo in
  let n = min k (sh.hi - lo) in
  if n > 0 then sh.lo <- lo + n;
  Mutex.unlock sh.sm;
  (lo, n)

let shard_steal sh =
  Mutex.lock sh.sm;
  let len = sh.hi - sh.lo in
  (* ceil(len/2): a one-element shard is stolen whole, so a thief that
     picked it always makes progress *)
  let k = (len + 1) / 2 in
  let stolen = (sh.hi - k, k) in
  if k > 0 then sh.hi <- sh.hi - k;
  Mutex.unlock sh.sm;
  stolen

(* Steal from the victim with the most work left (sized without locks:
   stale bounds only make the choice suboptimal, never wrong). *)
let pick_victim shards self =
  let best = ref (-1) and best_len = ref 0 in
  Array.iteri
    (fun v sh ->
      if v <> self then begin
        let len = sh.hi - sh.lo in
        if len > !best_len then begin
          best := v;
          best_len := len
        end
      end)
    shards;
  !best

let run_indexed ~jobs ~stop_at_first ~worlds ~children cfg n task =
  let results = Array.make n None in
  if n > 0 then begin
    let jobs = min jobs n in
    let min_viol = Atomic.make max_int in
    let shards =
      Array.init jobs (fun k ->
          { lo = k * n / jobs; hi = (k + 1) * n / jobs; sm = Mutex.create () })
    in
    let batch = 16 in
    let worker k () =
      (* one world snapshot per worker slot, amortized over every batch
         of the exploration; slot [k] belongs to worker [k] alone while a
         batch runs, and [Domain.join] hands it on to the next batch *)
      let reusable =
        match worlds.(k) with
        | Some r -> r
        | None ->
            let r =
              Harness.reusable { cfg with Harness.record_packets = false }
            in
            worlds.(k) <- Some r;
            r
      in
      let sh = shards.(k) in
      let continue = ref true in
      while !continue do
        let lo, got = shard_take_batch sh batch in
        if got > 0 then
          for i = lo to lo + got - 1 do
            if not (stop_at_first && i > Atomic.get min_viol) then begin
              let r = exec ~reusable ~children cfg (task i) in
              if r.violated <> None then note_violation min_viol i;
              results.(i) <- Some r
            end
          done
        else begin
          match pick_victim shards k with
          | -1 -> continue := false
          | v ->
              let slo, sn = shard_steal shards.(v) in
              if sn > 0 then begin
                Mutex.lock sh.sm;
                sh.lo <- slo;
                sh.hi <- slo + sn;
                Mutex.unlock sh.sm
              end
              (* steal raced to nothing: rescan; loop exits when every
                 shard reads empty *)
        end
      done
    in
    let extra =
      Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    worker 0 ();
    Array.iter Domain.join extra
  end;
  results

let run_random ~jobs ~stop_at_first ~quantum ~delay_prob ~reorder_prob cfg
    budget =
  let base_seed = cfg.Harness.seed in
  run_indexed ~jobs ~stop_at_first ~worlds:(Array.make jobs None)
    ~children:(fun _ _ -> [])
    cfg budget
    (fun i ->
      Strategy.random_run ~base_seed ~quantum ~delay_prob ~reorder_prob i)

(* The bounded-reorder tree, breadth first, one batch per level.  Level
   [l] holds every spec with [l] deviations, in the order a FIFO frontier
   would reach it, cut to the budget that remains; level [l + 1] is the
   children of each result (computed on the worker that ran it), taken in
   index order.  The concatenated results are therefore exactly the runs
   a FIFO frontier takes, in its order.  With [stop_at_first], a level
   that holds a violation is the last. *)
let run_bounded ~jobs ~stop_at_first ~quantum ~depth cfg budget =
  let seed = cfg.Harness.seed in
  let worlds = Array.make jobs None in
  let rec level l specs left acc =
    let specs = Array.sub specs 0 (min left (Array.length specs)) in
    let left = left - Array.length specs in
    let children parent info =
      if l = depth || left = 0 then []
      else Strategy.bounded_children ~quantum ~parent ~info
    in
    let results =
      run_indexed ~jobs ~stop_at_first ~worlds ~children cfg
        (Array.length specs) (fun i -> (seed, specs.(i)))
    in
    let acc = results :: acc in
    let violated =
      Array.exists
        (function Some { violated = Some _; _ } -> true | _ -> false)
        results
    in
    let next =
      Array.to_list results
      |> List.concat_map (function Some r -> r.children | None -> [])
    in
    if (stop_at_first && violated) || next = [] then acc
    else level (l + 1) (Array.of_list next) left acc
  in
  let root = { Controller.forced = []; random = None; quantum } in
  Array.concat (List.rev (level 0 [| root |] budget []))
