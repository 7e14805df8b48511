(** The single gate every probe site checks.

    A sink is owned by the simulation engine ([Dsim.Engine.obs]) and is
    {e inactive} by default: [active] is false, nothing is attached, and
    a probe site costs one field load and one predictable branch — the
    discipline that keeps the zero-allocation hot path intact with
    probes compiled in.  Every probe reports its fact exactly once, as
    one {!Recorder} record, with the ints it already holds:

    {[
      let s = Dsim.Engine.obs eng in
      if s.Obs.Sink.active then
        Obs.Sink.rec_event s ~kind:Obs.Recorder.k_token ~ts_us ~node ~a ~b
    ]}

    Nothing is boxed on either side of the gate.  The record stream is
    the only emit path: the Chrome trace ({!Recorder.to_trace}), the
    metrics registry ({!Metrics.of_recorder}) and the model checker's
    packet log are all read from the attached recorder afterwards, and
    the {!Health} monitor consumes the same records online.

    Components must read the sink through the engine at each probe
    rather than caching it at construction time, so a sink attached
    after world (re)build is still seen. *)

type t = {
  mutable active : bool;
      (** true iff a recorder or health monitor is attached — the one
          gate probe sites check before calling {!rec_event} *)
  mutable steps : bool;
      (** also emit one [k_step] record per engine callback (very hot;
          off by default even when recording) *)
  mutable recorder : Recorder.t option;
  mutable health : Health.t option;
  mutable attrib : Attrib.t option;
      (** wall-time attribution; gated separately (see {!attr_enter}) *)
}

val create : unit -> t
(** An inactive sink: nothing attached. *)

val set_recorder : t -> Recorder.t option -> unit
val set_health : t -> Health.t option -> unit
(** Attach or detach a consumer and recompute [active]. *)

val is_active : t -> bool
val recorder : t -> Recorder.t option
val health : t -> Health.t option
val set_steps : t -> bool -> unit

val rec_event : t -> kind:int -> ts_us:int -> node:int -> a:int -> b:int -> unit
(** Feed one record to whichever of recorder / health is attached.
    Callers are expected to have checked [active].  Record kinds and
    payload meanings are defined by {!Recorder}. *)

(** {1 Wall-time attribution}

    Separate gate from [active]: attribution brackets wall time rather
    than emitting records.  [attr_enter]/[attr_leave] are no-ops (one
    load, one branch) until a recorder is attached with [set_attrib].
    Callers bracket a region with a site interned once via
    {!Attrib.site}; regions nest and must be exited on every path. *)

val set_attrib : t -> Attrib.t option -> unit
val attrib : t -> Attrib.t option
val attr_enter : t -> Attrib.site -> unit
val attr_leave : t -> unit
