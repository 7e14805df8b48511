(** Wall-time attribution: per-(subsystem, probe) {e self} wall time in
    real nanoseconds, so a big run can say where its wall seconds went.

    A {!site} is one constructor of a closed variant, naming a
    (subsystem, probe) pair; the accumulators live in the per-recorder
    {!t}, so two concurrent recorders do not share state.  Regions nest: [leave] charges the elapsed time minus the
    time consumed by nested attributed regions, so summing every site's
    self time never double-counts.

    Attribution is reached through {!Sink.attr_enter} / {!Sink.attr_leave},
    which are no-ops (one load, one branch) unless a recorder has been
    attached with {!Sink.set_attrib} — the same opt-in discipline as the
    rest of [lib/obs].  Regions must be exited on every path; the helpers
    do not tolerate exceptions escaping an open region. *)

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

val sites : site list
(** Every site, in {!index} order. *)

val index : site -> int
(** Dense: [index] maps {!sites} onto [0 .. List.length sites - 1]. *)

val sub : site -> Subsystem.t
val name : site -> string
(** The probe name reported in {!row.probe}, e.g. ["m-join"]. *)

type t

val create : unit -> t

val enter : t -> site -> unit
val leave : t -> unit
(** [leave] closes the most recently entered region.  Raises
    [Invalid_argument] if no region is open. *)

type row = {
  sub : Subsystem.t;
  probe : string;
  calls : int;
  self_ns : float;
}

val report : t -> row list
(** Sites with at least one call, most self time first. *)

val total_ns : t -> float
(** Sum of all self times = total attributed wall ns. *)

val reset : t -> unit

val pp : Format.formatter -> t -> unit
val to_json : t -> string
