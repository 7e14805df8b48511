module Time = Dsim.Time

(* A world the explorer can run, in the shape of a TLA+ specification
   (DESIGN.md §7): [S.build] is [Init], the reset rewinds a built world
   to it ([Snap] restore plus the world's [rewind], trusted after a probe),
   [S.measure] is [Next] under a [Controller.spec], and the stream the
   check folds is the measurement's records.  [Make] turns a world into
   the runner [Pool] and [Explore] drive.  The worlds: [Harness] (the
   CTS ring) and [Hier_harness] (the sharded hierarchy). *)

(* The schedule a measurement actually executed. *)
type info = {
  deviations : Schedule.t;  (** applied deviations, chronological *)
  steps : int;  (** engine choice points seen *)
  packets : int;  (** network packets seen *)
  ties : (int * int) list;  (** [(step, ready)] branching points *)
  fingerprint : int;  (** hash of all reads — schedule identity *)
}

module type CONFIG = sig
  type config

  val properties : string list
  (** The [Obs.Check] properties this world's stream can witness, as the
      explorer's report lists them. *)

  val seed : config -> int64

  val prepare :
    ?sink:Obs.Sink.t -> seed:int64 -> packets:bool -> config -> config
  (** The configuration of one explored run: its seed, whether the
      outcome renders a packet log, and (when given) the sink the
      measurement adopts. *)
end

(* How a built world is rewound to a build under another seed. *)
type ('t, 'config) rewind = {
  same_startup : 'config -> 'config -> bool;
      (** the two build one world up to seeds: one snapshot serves both *)
  reseedable : 'config -> 't -> (unit, string) result;
      (** whether [reseed] can rewind [t], just built, to a build under
          any seed; [Error] says why not, and every run is built fresh *)
  reseed : 't -> 'config -> unit;
      (** set a restored world's random streams to the config's seed's *)
  probe : 'config -> 'config;  (** a short run that verifies a snapshot *)
}

module type S = sig
  include CONFIG

  type t  (** a built world *)

  val build : config -> t
  val measure : t -> spec:Controller.spec -> config -> Invariant.outcome * info

  val rewind : ((t, config) rewind, string) result
  (** How a built world is rewound between runs, or why every run is
      built fresh. *)
end

module type RUN = sig
  include CONFIG

  val run : ?spec:Controller.spec -> config -> Invariant.outcome * info
  (** Build, then measure under [spec] (default: no deviations). *)

  type reusable
  (** A built world rewound between runs, or else a promise to build
      each run fresh; [run_reused] returns what [run] would. *)

  val reusable : config -> reusable

  val reuse : reusable -> (unit, string) result
  (** [Ok ()] when runs restore the live world; [Error why] when they
      are built fresh. *)

  val reset : reusable -> config -> bool
  (** Ready for a run of the config (a new snapshot when its startup
      differs); [false] when runs will be built fresh. *)

  val run_reused :
    reusable -> ?spec:Controller.spec -> config -> Invariant.outcome * info
end

(* ------------------------------------------------------------------ *)
(* Packet log: the netsim records of the world's stream                *)

let packet_log_len = 256

(* The last [packet_log_len] send / deliver / drop records, one line
   each, oldest first. *)
let pp_packets ppf r =
  let is_packet kind =
    kind = Obs.Recorder.k_send || kind = Obs.Recorder.k_deliver
    || kind = Obs.Recorder.k_drop
  in
  let total = ref 0 in
  Obs.Recorder.iter r (fun ~kind ~ts_us:_ ~node:_ ~a:_ ~b:_ ->
      if is_packet kind then incr total);
  let skip = ref (!total - packet_log_len) in
  let id ppf n = Netsim.Node_id.pp ppf (Netsim.Node_id.of_int n) in
  Obs.Recorder.iter r (fun ~kind ~ts_us ~node:n ~a ~b ->
      if is_packet kind then
        if !skip > 0 then decr skip
        else
          let at = Time.of_us ts_us in
          if kind = Obs.Recorder.k_send && a < 0 then
            Format.fprintf ppf "%a %a -> *@." Time.pp at id n
          else if kind = Obs.Recorder.k_send then
            Format.fprintf ppf "%a %a -> %a@." Time.pp at id n id a
          else if kind = Obs.Recorder.k_deliver then
            Format.fprintf ppf "%a %a => %a@." Time.pp at id a id n
          else
            Format.fprintf ppf "%a %a -x %a (%s)@." Time.pp at id a id n
              (Obs.Recorder.drop_reason_name b))

(* The scaffolding of every measurement: adopt [sink] (else keep the
   engine's own), attach a fresh check over the ring partition [rings],
   lend a recorder when [packets] needs one, and install a controller of
   [spec] on the engine; the body watches the world's networks, runs,
   and returns the replicas' stats. *)
let observe eng ~spec ~sink ~packets ~rings body =
  (* A restored world rewinds the engine's sink with everything else, so
     an external sink is re-adopted per measurement. *)
  (match sink with Some s -> Dsim.Engine.set_obs eng s | None -> ());
  let sink = Dsim.Engine.obs eng in
  let c = Obs.Check.(create ~config:{ default_config with rings } ()) in
  Obs.Sink.set_check sink (Some c);
  let recorder, lent =
    if not packets then (None, false)
    else
      match Obs.Sink.recorder sink with
      | Some r -> (Some r, false)
      | None ->
          let r = Obs.Recorder.create () in
          Obs.Sink.set_recorder sink (Some r);
          (Some r, true)
  in
  let ctrl = Controller.create eng spec in
  Controller.install ctrl;
  let stats = body ctrl in
  Controller.uninstall ctrl;
  Obs.Check.finish c;
  Obs.Sink.set_check sink None;
  if lent then Obs.Sink.set_recorder sink None;
  let packet_log =
    match recorder with
    | Some r -> Format.asprintf "%a" pp_packets r
    | None -> ""
  in
  ( { Invariant.stats; verdicts = Obs.Check.verdicts c; packet_log },
    {
      deviations = Controller.applied ctrl;
      steps = Controller.steps ctrl;
      packets = Controller.packets ctrl;
      ties = Controller.tie_steps ctrl;
      fingerprint = Obs.Check.fingerprint c;
    } )

(* ------------------------------------------------------------------ *)
(* Reuse: one live world, rewound between runs                         *)

module Make (W : S) : RUN with type config = W.config = struct
  include (W : CONFIG with type config = W.config)

  let run ?(spec = Controller.default_spec) cfg =
    W.measure (W.build cfg) ~spec cfg

  type reusable = {
    mutable diff : (W.t * Snap.t, string) result;
        (* live world + dirty-set snapshot, or why runs are fresh *)
    mutable startup : config;
  }

  (* Diff-based reuse: keep ONE live world and rewind it between runs
     with [Snap.restore] instead of rebuilding it.  The snapshot layer
     cannot rewind every block (Bigarray RNG customs above all — those
     go through [rw.reseed] — but also any mutable state it does not know
     how to walk), so a snapshot is only trusted after a verification
     probe: run a short measurement on the pristine world, restore +
     reseed, run it again, and demand bit-identical fingerprints.  A
     world whose restore is lossy fails the probe and drops to fresh
     construction; correctness never depends on [Snap] completeness. *)
  let make_diff cfg =
    Result.bind W.rewind @@ fun rw ->
    try
      let world = W.build cfg in
      Result.bind (rw.reseedable cfg world) @@ fun () ->
      let snap = Snap.capture world in
      let pcfg = rw.probe cfg in
      rw.reseed world pcfg;
      let _, fresh = W.measure world ~spec:Controller.default_spec pcfg in
      ignore (Snap.restore snap : int);
      rw.reseed world pcfg;
      let _, again = W.measure world ~spec:Controller.default_spec pcfg in
      if
        fresh.fingerprint = again.fingerprint
        && fresh.steps = again.steps
        && fresh.packets = again.packets
      then begin
        (* leave the world pristine for its first real run *)
        ignore (Snap.restore snap : int);
        Ok (world, snap)
      end
      else Error "a restored world did not replay its probe run"
    with e ->
      (* a world the snapshot layer cannot capture or replay only
         disables the fast path; fresh construction gives the same
         results, and the reason is kept for [reuse] *)
      Error ("the snapshot failed: " ^ Printexc.to_string e)

  let reusable cfg = { diff = make_diff cfg; startup = cfg }
  let reuse r = Result.map ignore r.diff

  let reset r cfg =
    (match W.rewind with
    | Ok rw when not (rw.same_startup cfg r.startup) ->
        r.startup <- cfg;
        r.diff <- make_diff cfg
    | _ -> ());
    Result.is_ok r.diff

  let run_reused r ?(spec = Controller.default_spec) cfg =
    ignore (reset r cfg : bool);
    match (r.diff, W.rewind) with
    | Ok (world, snap), Ok rw ->
        ignore (Snap.restore snap : int);
        rw.reseed world cfg;
        W.measure world ~spec cfg
    | _ -> run ~spec cfg
end
