exception Not_in_fiber

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* Fiber probes live inside closures that already exist (the resume
   thunk and the spawn thunk), so the disabled path adds nothing beyond
   the sink's load + branch; [eng] was already captured. *)
let probe_fiber eng ~start id =
  let s = Engine.obs eng in
  if s.Obs.Sink.active then
    Obs.Sink.rec_event s
      ~kind:
        (if start then Obs.Recorder.k_fiber_spawn
         else Obs.Recorder.k_fiber_switch)
      ~ts_us:(Time.to_ns (Engine.now eng) / 1000)
      ~node:0 ~a:id ~b:0

let spawn eng f =
  let open Effect.Deep in
  let id = Engine.fresh_fiber_id eng in
  let handler =
    {
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (b, _) continuation) ->
                  let resumed = ref false in
                  let resume () =
                    if !resumed then
                      invalid_arg "Fiber: resume called twice"
                    else begin
                      resumed := true;
                      probe_fiber eng ~start:false id;
                      continue k ()
                    end
                  in
                  register resume)
          | _ -> None);
    }
  in
  Engine.schedule eng Time.Span.zero (fun () ->
      probe_fiber eng ~start:true id;
      try_with f () handler)

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> raise Not_in_fiber

let sleep eng d =
  let register resume = Engine.schedule eng d resume in
  suspend register

let yield eng = sleep eng Time.Span.zero
