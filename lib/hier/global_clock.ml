type t = {
  eng : Dsim.Engine.t;
  me : int;
  mutable value : Dsim.Time.t option;
  mutable round : int;
  mutable updates : int;
  mutable regressions : int;
}

let create eng ~me =
  {
    eng;
    me = Netsim.Node_id.to_int me;
    value = None;
    round = 0;
    updates = 0;
    regressions = 0;
  }

let value t = t.value
let round t = t.round
let updates t = t.updates
let regressions t = t.regressions

let observe t ~round ~time =
  t.updates <- t.updates + 1;
  match t.value with
  | None ->
      t.round <- round;
      t.value <- Some time;
      time
  | Some v when round <= t.round ->
      (* Not a newer agreement: a reordered older round, or the same
         round re-delivered (or agreed by both sides of a healing
         dual-coordinator window).  Fold it in monotonically but do not
         call a lower value a regression — only a strictly newer round
         can regress. *)
      if Dsim.Time.(time > v) then begin
        t.value <- Some time;
        time
      end
      else v
  | Some v ->
      t.round <- round;
      if Dsim.Time.(time < v) then begin
        t.regressions <- t.regressions + 1;
        (let s = Dsim.Engine.obs t.eng in
         if s.Obs.Sink.active then
           Obs.Sink.rec_event s ~kind:Obs.Recorder.k_hier_clamp
             ~ts_us:(Dsim.Time.to_ns (Dsim.Engine.now t.eng) / 1000)
             ~node:t.me ~a:round
             ~b:(Dsim.Time.Span.to_us (Dsim.Time.diff v time)));
        v
      end
      else begin
        t.value <- Some time;
        time
      end
