type t = {
  mutable active : bool;
  mutable steps : bool;
  mutable recorder : Recorder.t option;
  mutable health : Health.t option;
  mutable attrib : Attrib.t option;
}

let create () =
  { active = false; steps = false; recorder = None; health = None; attrib = None }

let refresh t = t.active <- t.recorder <> None || t.health <> None

let set_recorder t r =
  t.recorder <- r;
  refresh t

let set_health t h =
  t.health <- h;
  refresh t

let is_active t = t.active
let recorder t = t.recorder
let health t = t.health
let set_steps t v = t.steps <- v

let rec_event t ~kind ~ts_us ~node ~a ~b =
  (match t.recorder with
  | Some r -> Recorder.emit r ~kind ~ts_us ~node ~a ~b
  | None -> ());
  match t.health with
  | Some h ->
      (Health.observe h ~kind ~ts_us ~node ~a ~b
      [@ctslint.allow
        "hotpath-alloc"
          "the health monitor's invariant checks walk hashtables; \
           attaching a monitor deliberately trades the zero-alloc \
           guarantee of the recorder for diagnosis"])
  | None -> ()

(* Wall-time attribution keeps its own gate: it brackets regions of
   wall time rather than emitting records, so it is not part of the
   stream.  Disabled cost is the same one load + one branch. *)

let set_attrib t a = t.attrib <- a
let attrib t = t.attrib

let attr_enter t site =
  match t.attrib with Some a -> Attrib.enter a site | None -> ()
[@@inline]

let attr_leave t =
  match t.attrib with Some a -> Attrib.leave a | None -> ()
[@@inline]
