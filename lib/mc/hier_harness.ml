(* The hierarchical multi-ring service as the second [World] (DESIGN.md
   §7): a 3x3 [Scenario.Cluster_hier] testbed, shard [s]'s clocks
   [2 s] ms behind, whose check takes the shards as its rings, so every
   property is on.  A run forms the shards (so their first elections
   are in the checked stream), settles its readers, then four times
   lets a random stretch (0.5–5 ms) pass and, with probability 0.4,
   crashes a random shard's gateway, settling after each; it settles
   once more, stops the readers and lets the open rounds settle before
   the check is finished.  The draws come from a stream split from the
   run's seed, as [Harness] draws think times.  With formation inside
   the run, a built world holds nothing worth a snapshot: every run is
   built fresh, and [reuse] says so. *)

module Span = Dsim.Time.Span
module CH = Scenario.Cluster_hier

let shards = 3 and shard_size = 3
let steps = 4 (* perturbations per run *)
let settle = Span.of_ms 40 (* quiescence after each perturbation *)

type config = {
  seed : int64;
  record_packets : bool;  (** render the run's packet log *)
  sink : Obs.Sink.t option;  (** sink the measurement adopts *)
}

let default = { seed = 1L; record_packets = false; sink = None }

module Run = World.Make (struct
  type nonrec config = config
  type t = CH.t

  let properties = Obs.Check.properties
  let seed cfg = cfg.seed

  let prepare ?sink ~seed ~packets cfg =
    let sink = match sink with Some _ -> sink | None -> cfg.sink in
    { seed; record_packets = packets; sink }

  let build cfg =
    let clock_config i =
      {
        Clock.Hwclock.default_config with
        offset = Span.of_ms (-2 * (i / shard_size));
      }
    in
    CH.create ~seed:cfg.seed ~clock_config ~shards ~shard_size ()

  let measure (t : CH.t) ~spec cfg =
    let eng = t.CH.eng in
    World.observe eng ~spec ~sink:cfg.sink ~packets:cfg.record_packets
      ~rings:(Hier.Topology.rings t.CH.topo)
    @@ fun ctrl ->
    (* The draws do not depend on the schedule: nothing has run yet. *)
    let rng = Dsim.Rng.split (Dsim.Engine.rng eng) in
    Array.iter (Controller.watch ctrl) t.CH.shard_nets;
    Controller.watch ctrl t.CH.bridge;
    (* Formation is part of the run, so every shard's first election is
       in the checked stream. *)
    CH.start_all t;
    CH.start_readers t;
    CH.run_for t settle;
    (* Each crash must leave a strict majority of the shard's previous
       view, so a chain of single crashes keeps it in the primary
       component while more than half its members survive. *)
    let budgets = Array.make shards ((shard_size - 1) / 2) in
    for _ = 1 to steps do
      CH.run_for t (Span.of_us (Dsim.Rng.int_range rng 500 5_000));
      let s = Dsim.Rng.int_range rng 0 (shards - 1) in
      if Dsim.Rng.float rng 1.0 < 0.4 && budgets.(s) > 0 then
        if CH.crash_gateway t s <> None then budgets.(s) <- budgets.(s) - 1;
      CH.run_for t settle
    done;
    (* One more settle period for the last perturbation's failover; then
       no new rounds, and the open ones settle before the check is
       finished. *)
    CH.run_for t settle;
    CH.stop_readers t;
    CH.run_for t settle;
    Array.iter Controller.unwatch t.CH.shard_nets;
    Controller.unwatch t.CH.bridge;
    Array.map (fun (r : CH.replica) -> Cts.Service.stats r.CH.service)
      t.CH.replicas

  let rewind =
    Error "formation is part of every run, so a built world holds no startup"
end)

include (Run : World.RUN with type config := config)
