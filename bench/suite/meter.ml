(* The measurement loop every workload shares.  A workload builds its
   world through [setup], hands [measure] a function that runs one chunk
   and returns the operations it completed, and reports failures,
   correctness checks and its layer counts through the context.  The
   meter owns timing, the traced/untraced alternation and the metrics
   that mean the same thing for every workload. *)

[@@@ctslint.allow
"wall-clock"
  "the benchmark measures real elapsed time by definition; nothing here \
   feeds back into simulated state"]

let wall = Mc.Explore.wall

type length =
  | Seconds of float  (** chunks until this much wall time has passed *)
  | Chunks of int  (** exactly this many chunks *)

type budget = {
  length : length;
  setup_reps : int;  (** set up at least this many times *)
  setup_min_s : float;  (** ... and until this much set-up time is spent *)
}

let max_setup_reps = 25

(* Three builds at least, more only while they are cheap.  The largest
   world (hier_576) takes about 1.4 s to build, so its run stays near
   15 s. *)
let timed seconds = { length = Seconds seconds; setup_reps = 3; setup_min_s = 0.5 }
let fixed chunks = { length = Chunks chunks; setup_reps = 1; setup_min_s = 0. }

type chunk = { ops : int; wall_s : float; traced : bool }

type ctx = {
  trace : bool;
  budget : budget;
  spans : Spans.t;
  rec_setup : Obs.Attrib.t;  (** attached while a world is built *)
  rec_measure : Obs.Attrib.t;  (** attached on every other chunk *)
  mutable sinks : Obs.Sink.t list;  (** sinks of the live world *)
  mutable current : Obs.Attrib.t option;
  mutable setup_walls : float list;
  mutable world_words : int list;  (** live heap after each set-up *)
  mutable excluded_s : float;  (** set-up time inside the running chunk *)
  mutable excluded_minor : float;
  mutable excluded_major : int;
  mutable chunks : chunk list;  (** newest first *)
  mutable gc_minor_words : float;
  mutable gc_major : int;
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable values : (string * float) list;  (** set by the workload *)
  mutable rebuild : (unit -> unit) option;  (** see [setup_repeated] *)
}

let create ~trace budget =
  {
    trace;
    budget;
    spans = Spans.create ~on:trace;
    rec_setup = Obs.Attrib.create ();
    rec_measure = Obs.Attrib.create ();
    sinks = [];
    current = None;
    setup_walls = [];
    world_words = [];
    excluded_s = 0.;
    excluded_minor = 0.;
    excluded_major = 0;
    chunks = [];
    gc_minor_words = 0.;
    gc_major = 0;
    attempted = 0;
    failed = 0;
    problems = [];
    values = [];
    rebuild = None;
  }

let attach ctx r =
  ctx.current <- r;
  List.iter (fun s -> Obs.Sink.set_attrib s r) ctx.sinks

(** Register the sink of a world just created, so the traced run can
    attach its recorders to it. *)
let bind ctx sink =
  ctx.sinks <- sink :: ctx.sinks;
  Obs.Sink.set_attrib sink ctx.current

(** Forget the sinks of a world that is about to be dropped. *)
let release ctx = ctx.sinks <- []

let attempt ctx n = ctx.attempted <- ctx.attempted + n
let fail ctx n = ctx.failed <- ctx.failed + n
let check ctx ok msg = if not ok then ctx.problems <- msg :: ctx.problems
let set ctx name v = ctx.values <- (name, v) :: ctx.values

(** A span around one public call into the program. *)
let call ctx ~sub name f = Spans.within ctx.spans ~sub name f

(** Build a world.  Its wall time is one set-up sample; when called from
    inside a chunk, none of it counts as the chunk's time.  With [~keep]
    (the default) the world is the one the run goes on with, and the heap
    it holds after a full collection is one [world_mb] sample. *)
let setup ?(keep = true) ctx name f =
  let prev = ctx.current in
  if ctx.trace then attach ctx (Some ctx.rec_setup);
  let s0 = Gc.quick_stat () in
  let t0 = wall () in
  let w = Spans.within ctx.spans ~sub:Obs.Subsystem.Scenario name f in
  let dt = wall () -. t0 in
  attach ctx prev;
  if keep then begin
    Gc.full_major ();
    ctx.world_words <- (Gc.stat ()).Gc.live_words :: ctx.world_words
  end;
  let s1 = Gc.quick_stat () in
  ctx.setup_walls <- dt :: ctx.setup_walls;
  ctx.excluded_s <- ctx.excluded_s +. (wall () -. t0);
  ctx.excluded_minor <-
    ctx.excluded_minor +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  ctx.excluded_major <-
    ctx.excluded_major + (s1.Gc.major_collections - s0.Gc.major_collections);
  w

(* A world that builds in under [cheap_setup_s] is also rebuilt between
   chunks, at most every [rebuild_every] seconds.  Such a build takes well
   under a millisecond, so back-to-back builds sample one instant of the
   host (one vCPU's neighbours, measured to move it 1.7x); spread over the
   whole run, their median is steady. *)
let cheap_setup_s = 0.05
let rebuild_every = 0.1

(** Build the world several times and keep the last one, so [setup_s]
    is a median rather than one sample: [setup_reps] builds, then more
    until [setup_min_s] is spent (at most [max_setup_reps]).  Each
    discarded world is collected before the next is built, so the heap
    never holds two. *)
let setup_repeated ctx name build =
  let rec go reps spent =
    let t0 = wall () in
    let w = setup ctx name build in
    let spent = spent +. (wall () -. t0) in
    let reps = reps + 1 in
    if
      reps >= max_setup_reps
      || (reps >= ctx.budget.setup_reps && spent >= ctx.budget.setup_min_s)
    then w
    else begin
      release ctx;
      Gc.full_major ();
      go reps spent
    end
  in
  let w = go 0 0. in
  if List.for_all (fun dt -> dt < cheap_setup_s) ctx.setup_walls then
    ctx.rebuild <-
      Some
        (fun () ->
          let sinks = ctx.sinks in
          ignore (setup ~keep:false ctx name build);
          ctx.sinks <- sinks);
  w

(** [f ()] and the wall seconds it took. *)
let timed_call f =
  let t0 = wall () in
  let r = f () in
  (r, wall () -. t0)

(** Run [f] inside a chunk without charging its time to the chunk. *)
let untimed ctx f =
  let t0 = wall () in
  let r = f () in
  ctx.excluded_s <- ctx.excluded_s +. (wall () -. t0);
  r

(** The measured phase: chunks until the budget is spent.  In the traced
    run every other chunk carries the attribution recorder, so the
    untraced chunks in between give the tracing overhead. *)
let measure ctx chunk =
  let t_start = wall () in
  let more i =
    match ctx.budget.length with
    | Chunks n -> i < n
    | Seconds s -> i = 0 || wall () -. t_start < s
  in
  let g0 = Gc.quick_stat () in
  let x_minor = ctx.excluded_minor and x_major = ctx.excluded_major in
  Spans.within ctx.spans ~sub:Obs.Subsystem.Dsim "measure" (fun () ->
      let i = ref 0 and rebuilt = ref t_start in
      while more !i do
        let traced = ctx.trace && !i mod 2 = 0 in
        attach ctx (if traced then Some ctx.rec_measure else None);
        ctx.excluded_s <- 0.;
        let t0 = wall () in
        let ops = Spans.within ctx.spans ~sub:Obs.Subsystem.Dsim "chunk" chunk in
        let t1 = wall () in
        ctx.chunks <- { ops; wall_s = t1 -. t0 -. ctx.excluded_s; traced } :: ctx.chunks;
        (match ctx.rebuild with
        | Some f when t1 -. !rebuilt >= rebuild_every ->
            f ();
            rebuilt := t1
        | Some _ | None -> ());
        incr i
      done);
  attach ctx None;
  let g1 = Gc.quick_stat () in
  ctx.gc_minor_words <-
    g1.Gc.minor_words -. g0.Gc.minor_words
    -. (ctx.excluded_minor -. x_minor);
  ctx.gc_major <-
    g1.Gc.major_collections - g0.Gc.major_collections
    - (ctx.excluded_major - x_major)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* The [p] quantile, [p] in [0, 1], by Stats.Summary's interpolation
   between order statistics; 0 when there are no samples. *)
let quantile p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      Stats.Summary.percentile s (100. *. p)

let median xs = quantile 0.5 xs
let ratio a b = if b = 0. then 0. else a /. b

(* Engine timer events with no protocol on top: the per-event floor every
   simulated layer pays (median of 5 passes of 200 k events). *)
let bare_ns_per_event () =
  let n = 200_000 and batch = 10_000 in
  let pass () =
    let eng = Dsim.Engine.create () in
    let t0 = wall () in
    let done_ = ref 0 in
    while !done_ < n do
      for i = 1 to batch do
        Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
      done;
      Dsim.Engine.run eng;
      done_ := !done_ + batch
    done;
    (wall () -. t0) *. 1e9 /. float_of_int n
  in
  median (List.init 5 (fun _ -> pass ()))

(* ------------------------------------------------------------------ *)
(* Result                                                              *)

type result = {
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  problems : string list;
  metrics : (Catalog.t * float) list;  (** every catalog metric *)
  identity : string;  (** attributed + residual = traced wall, spelled out *)
}

let rate c = ratio (float_of_int c.ops) c.wall_s

(* Throughput of a set of chunks: the upper decile of the per-chunk
   rates.  Load from other tenants of the host only ever slows a chunk,
   comes in bursts of tens of milliseconds to minutes, and at its worst
   halves the rate.  Over a few hundred chunks the upper decile reads the
   rate of the program itself whenever part of the run went undisturbed,
   where the median reads how busy the host was.  (bench/main.ml takes
   the best of 5 passes for the same reason.) *)
let throughput chunks = quantile 0.9 (List.map rate chunks)

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

(* Self time summed over the (subsystem, probe) sites [pred] selects. *)
let self_ns r pred =
  List.fold_left
    (fun (calls, ns) (row : Obs.Attrib.row) ->
      if pred row.Obs.Attrib.sub row.Obs.Attrib.probe then
        (calls + row.Obs.Attrib.calls, ns +. row.Obs.Attrib.self_ns)
      else (calls, ns))
    (0, 0.) (Obs.Attrib.report r)

let is_membership sub probe =
  sub = Obs.Subsystem.Totem && String.length probe > 2
  && String.sub probe 0 2 = "m-"

let finish ctx =
  let chunks = List.rev ctx.chunks in
  let plain, traced = List.partition (fun (c : chunk) -> not c.traced) chunks in
  let ops_all = List.fold_left (fun a c -> a + c.ops) 0 chunks in
  let ops_traced = float_of_int (List.fold_left (fun a c -> a + c.ops) 0 traced) in
  let wall_traced_ns =
    1e9 *. List.fold_left (fun a c -> a +. c.wall_s) 0. traced
  in
  let setups = float_of_int (List.length ctx.setup_walls) in
  let measure_sites pred = self_ns ctx.rec_measure pred in
  let per_traced_op pred = ratio (snd (measure_sites pred)) ops_traced in
  let setup_calls pred = ratio (float_of_int (fst (self_ns ctx.rec_setup pred))) setups in
  let setup_ms pred = ratio (snd (self_ns ctx.rec_setup pred)) setups /. 1e6 in
  let attributed = Obs.Attrib.total_ns ctx.rec_measure in
  let residual = wall_traced_ns -. attributed in
  let sub s = fun sub _ -> sub = s in
  let probe s p = fun sub probe -> sub = s && String.equal probe p in
  let generic =
    [
      ("setup_s", median ctx.setup_walls);
      ("ops_per_s", throughput plain);
      ("world_mb", median (List.map (fun w -> mb w) ctx.world_words));
      ("gc.peak_heap_mb", mb (Gc.quick_stat ()).Gc.top_heap_words);
      ("dsim.residual_ns_per_op", ratio residual ops_traced);
      ("netsim.self_ns_per_op", per_traced_op (sub Obs.Subsystem.Netsim));
      ("totem.token_self_ns_per_op", per_traced_op (probe Obs.Subsystem.Totem "token"));
      ( "totem.regular_self_ns_per_op",
        per_traced_op (probe Obs.Subsystem.Totem "regular") );
      ("totem.membership_self_ns_per_op", per_traced_op is_membership);
      ("totem.m_join_calls", setup_calls (probe Obs.Subsystem.Totem "m-join"));
      ("totem.membership_self_ms", setup_ms is_membership);
      ( "gcs.ring_view_self_ns_per_op",
        per_traced_op (probe Obs.Subsystem.Gcs "ring-view") );
      ("cts.self_ns_per_op", per_traced_op (sub Obs.Subsystem.Ccs));
      ("hier.self_ns_per_round", per_traced_op (sub Obs.Subsystem.Hier));
      ("scenario.setup_self_ms", setup_ms (sub Obs.Subsystem.Scenario));
      ( "gc.minor_bytes_per_op",
        ratio (ctx.gc_minor_words *. float_of_int (Sys.word_size / 8))
          (float_of_int ops_all) );
      ("gc.major_collections", float_of_int ctx.gc_major);
      ("obs.attributed_share", ratio attributed wall_traced_ns);
      ( "obs.trace_overhead_pct",
        if plain = [] || traced = [] then 0.
        else
          100. *. (ratio (throughput plain) (throughput traced) -. 1.) );
      ("dsim.bare_ns_per_event", if ctx.trace then bare_ns_per_event () else 0.);
    ]
  in
  let value name =
    match List.assoc_opt name ctx.values with
    | Some v -> v
    | None -> Option.value ~default:0. (List.assoc_opt name generic)
  in
  let metrics =
    List.map (fun (e : Catalog.t) -> (e, value e.Catalog.name))
      (Catalog.end_to_end @ Catalog.per_layer)
  in
  let problems =
    List.rev ctx.problems
    @ List.filter_map
        (fun ((e : Catalog.t), v) ->
          if Float.is_finite v then None
          else Some (Printf.sprintf "metric %s is not finite" e.Catalog.name))
        metrics
  in
  {
    traced = ctx.trace;
    correct = problems = [];
    attempted = ctx.attempted;
    failed = ctx.failed;
    problems;
    metrics;
    identity =
      Printf.sprintf
        "traced chunks: %.0f ns wall = %.0f ns attributed + %.0f ns residual \
         (%d of %d chunks traced)"
        wall_traced_ns attributed residual (List.length traced)
        (List.length chunks);
  }

let add_problem r msg = { r with correct = false; problems = r.problems @ [ msg ] }

(* What a run reports: the end-to-end metrics with --trace 0, the
   per-layer ones with --trace 1.  [~readable] adds, to the untraced
   run's list, the per-layer values that need no tracing (counts and
   simulated quantities), for the human-readable lines and the result
   file; the final JSON line carries exactly the declared set. *)
let reported ?(readable = false) r =
  let e2e (e : Catalog.t) = List.memq e Catalog.end_to_end in
  List.filter
    (fun ((e : Catalog.t), _) ->
      if r.traced then not (e2e e)
      else e2e e || (readable && e.Catalog.kind = Catalog.Sim))
    r.metrics

let metrics_json ms =
  Json.Obj
    (List.map
       (fun ((e : Catalog.t), v) ->
         ( e.Catalog.name,
           Json.Obj [ ("value", Json.Num v); ("unit", Json.Str e.Catalog.unit_) ]
         ))
       ms)

(** The last line a run prints. *)
let json_line r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json (reported r));
    ]

(** The result file `compare` reads. *)
let record ~workload ~seed ~seconds r =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Num (if r.traced then 1. else 0.));
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) r.problems));
      ("metrics", metrics_json (reported ~readable:true r));
    ]

let pp_lines ppf r =
  List.iter
    (fun ((e : Catalog.t), v) ->
      Format.fprintf ppf "metric %-38s %14s %s@." e.Catalog.name (Json.number v)
        e.Catalog.unit_)
    (reported ~readable:true r);
  Format.fprintf ppf "attempted %d, failed %d@." r.attempted r.failed;
  if r.traced then Format.fprintf ppf "%s@." r.identity;
  List.iter (fun p -> Format.fprintf ppf "CHECK FAILED: %s@." p) r.problems

(** One run of a workload under [budget]. *)
let run ~trace budget f =
  let ctx = create ~trace budget in
  f ctx;
  (ctx, finish ctx)
