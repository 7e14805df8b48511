type t = { n_shards : int; size : int }

let create ~shards ~shard_size =
  if shards < 1 || shard_size < 1 then
    invalid_arg "Hier.Topology.create: shards and shard_size must be >= 1";
  { n_shards = shards; size = shard_size }

let shards t = t.n_shards
let shard_size t = t.size
let replicas t = t.n_shards * t.size

let shard_of t node =
  let n = Netsim.Node_id.to_int node in
  if n < 0 || n >= replicas t then
    invalid_arg "Hier.Topology.shard_of: node outside the layout";
  n / t.size

let rings t = Array.init (replicas t) (fun n -> n / t.size)

let rank_of t node =
  let n = Netsim.Node_id.to_int node in
  if n < 0 || n >= replicas t then
    invalid_arg "Hier.Topology.rank_of: node outside the layout";
  n mod t.size

let node t ~shard ~rank =
  if shard < 0 || shard >= t.n_shards || rank < 0 || rank >= t.size then
    invalid_arg "Hier.Topology.node: position outside the layout";
  Netsim.Node_id.of_int ((shard * t.size) + rank)

let shard_members t shard =
  List.init t.size (fun rank -> node t ~shard ~rank)

let ring_distance t a b =
  let s = t.n_shards in
  let d = ((a - b) mod s + s) mod s in
  min d (s - d)

let pp ppf t =
  Format.fprintf ppf "%d shards x %d replicas" t.n_shards t.size
