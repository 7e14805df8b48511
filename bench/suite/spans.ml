(* Bench-side spans for the traced run: workload -> phase -> chunk ->
   public call, each carrying its own id and its parent's, timed on the
   host clock.  They stay in memory and are written once, as Chrome
   trace JSON, when the run ends.  Spans inside the program are out of
   scope here: the suite only times its own calls into each layer. *)

[@@@ctslint.allow
"wall-clock"
  "bench spans time the harness's own calls on the host clock; nothing \
   here feeds back into simulated state"]

type t = {
  on : bool;
  trace : Obs.Trace.t;
  t0 : float;
  mutable next_id : int;
  mutable open_ : (int * string * Obs.Subsystem.t) list;
}

let create ~on =
  {
    on;
    trace = Obs.Trace.create ~capacity:(if on then 200_000 else 1) ();
    t0 = Mc.Explore.wall ();
    next_id = 1;
    open_ = [];
  }

let now_ns t = int_of_float ((Mc.Explore.wall () -. t.t0) *. 1e9)

let enter t ~sub name =
  if t.on then begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.open_ with (p, _, _) :: _ -> p | [] -> 0 in
    Obs.Trace.span_begin t.trace ~ts_ns:(now_ns t) ~pid:0 ~sub ~name
      ~args:[ ("id", id); ("parent", parent) ];
    t.open_ <- (id, name, sub) :: t.open_
  end

let leave t =
  match t.open_ with
  | (id, name, sub) :: rest ->
      Obs.Trace.span_end t.trace ~ts_ns:(now_ns t) ~pid:0 ~sub ~name
        ~args:[ ("id", id) ];
      t.open_ <- rest
  | [] -> if t.on then invalid_arg "Spans.leave: no open span"

let within t ~sub name f =
  enter t ~sub name;
  Fun.protect ~finally:(fun () -> leave t) f

let count t = Obs.Trace.length t.trace

(* Closes whatever is still open (a run that raised), then writes. *)
let write t path =
  while t.open_ <> [] do
    leave t
  done;
  Obs.Trace.write_chrome_file ~process_name:(fun _ -> "ctsbench") t.trace path
