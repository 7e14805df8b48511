(** Metrics registry: counters, named gauges and latency / adjustment
    histograms (reusing {!Stats.Histogram}), with a snapshot-to-JSON
    exporter.

    The counters and the two histograms are a fold over the record
    stream ({!of_recorder}); no probe feeds the registry directly. *)

type t

(** Fixed counter keys.  Adding a key means extending [key_index],
    [key_name] and [all_keys] in lock-step; the registry stores counts in
    a dense int array indexed by [key_index]. *)
type key =
  | Engine_events      (** callbacks run by [Dsim.Engine] ([Engine.steps]) *)
  | Fiber_spawns
  | Fiber_switches     (** fiber resumptions after a suspend *)
  | Net_sent
  | Net_delivered
  | Net_dropped
  | Totem_tokens       (** regular-token visits accepted *)
  | Totem_views        (** ring installations (operational transitions) *)
  | Gcs_views          (** view changes delivered to group members *)
  | Ccs_rounds         (** CCS rounds opened *)
  | Ccs_wins           (** rounds closed by a winning synchronizer msg *)
  | Ccs_suppressed     (** sends suppressed by duplicate detection *)
  | Ccs_discards       (** stale / losing round messages discarded *)
  | Ccs_offset_updates (** group-clock offset recomputations *)
  | Repl_requests
  | Repl_checkpoints
  | Rpc_calls
  | Rpc_timeouts
  | Hier_rounds        (** cross-shard bridge rounds agreed *)
  | Hier_corrections   (** bounded corrections injected into a shard *)
  | Hier_elections     (** gateway (re-)elections *)

type hkey = Ccs_adjustment_us | Rpc_latency_us

val create : unit -> t

val of_recorder : ?engine_events:int -> Recorder.t -> t
(** Fold the recorder's window into a fresh registry: one counter bump
    per record of a counted kind ([k_send] -> [Net_sent], [k_ccs_open]
    -> [Ccs_rounds], ...), [Ccs_adjustment_us] from [k_ccs_offset] and
    [Rpc_latency_us] from non-timed-out [k_rpc_end] records.
    [engine_events] (default 0) sets [Engine_events], which no record
    carries — pass [Dsim.Engine.steps].  Counts cover the window only:
    records overwritten by wrap ({!Recorder.dropped}) are not counted. *)

val incr : t -> key -> unit
(** One array store; allocation-free. *)

val add : t -> key -> int -> unit
val get : t -> key -> int

val observe : t -> hkey -> float -> unit
val hist : t -> hkey -> Stats.Histogram.t

val gauge : t -> string -> float ref
(** Find-or-create a named gauge; set it with [:=].  Cold path only. *)

val reset : t -> unit

val key_name : key -> string
val hkey_name : hkey -> string
val all_keys : key list

val to_json : t -> string
(** Whole-registry snapshot as a JSON object with [counters], [gauges]
    and [histograms] members. *)
