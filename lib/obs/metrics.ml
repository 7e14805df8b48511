(* Fixed-key counters live in a plain int array indexed by the key's
   constructor number, so [incr] is one load, one add, one store.  The
   counters and histograms are filled by folding the record stream
   ([of_recorder]); the gauges are find-or-create by name. *)

type key =
  | Engine_events
  | Fiber_spawns
  | Fiber_switches
  | Net_sent
  | Net_delivered
  | Net_dropped
  | Totem_tokens
  | Totem_views
  | Gcs_views
  | Ccs_rounds
  | Ccs_wins
  | Ccs_suppressed
  | Ccs_discards
  | Ccs_offset_updates
  | Repl_requests
  | Repl_checkpoints
  | Rpc_calls
  | Rpc_timeouts
  | Hier_rounds
  | Hier_corrections
  | Hier_elections

let key_count = 21

let key_index = function
  | Engine_events -> 0
  | Fiber_spawns -> 1
  | Fiber_switches -> 2
  | Net_sent -> 3
  | Net_delivered -> 4
  | Net_dropped -> 5
  | Totem_tokens -> 6
  | Totem_views -> 7
  | Gcs_views -> 8
  | Ccs_rounds -> 9
  | Ccs_wins -> 10
  | Ccs_suppressed -> 11
  | Ccs_discards -> 12
  | Ccs_offset_updates -> 13
  | Repl_requests -> 14
  | Repl_checkpoints -> 15
  | Rpc_calls -> 16
  | Rpc_timeouts -> 17
  | Hier_rounds -> 18
  | Hier_corrections -> 19
  | Hier_elections -> 20

let key_name = function
  | Engine_events -> "engine_events"
  | Fiber_spawns -> "fiber_spawns"
  | Fiber_switches -> "fiber_switches"
  | Net_sent -> "net_sent"
  | Net_delivered -> "net_delivered"
  | Net_dropped -> "net_dropped"
  | Totem_tokens -> "totem_tokens"
  | Totem_views -> "totem_views"
  | Gcs_views -> "gcs_views"
  | Ccs_rounds -> "ccs_rounds"
  | Ccs_wins -> "ccs_wins"
  | Ccs_suppressed -> "ccs_suppressed"
  | Ccs_discards -> "ccs_discards"
  | Ccs_offset_updates -> "ccs_offset_updates"
  | Repl_requests -> "repl_requests"
  | Repl_checkpoints -> "repl_checkpoints"
  | Rpc_calls -> "rpc_calls"
  | Rpc_timeouts -> "rpc_timeouts"
  | Hier_rounds -> "hier_rounds"
  | Hier_corrections -> "hier_corrections"
  | Hier_elections -> "hier_elections"

let all_keys =
  [
    Engine_events; Fiber_spawns; Fiber_switches; Net_sent; Net_delivered;
    Net_dropped; Totem_tokens; Totem_views; Gcs_views; Ccs_rounds; Ccs_wins;
    Ccs_suppressed; Ccs_discards; Ccs_offset_updates; Repl_requests;
    Repl_checkpoints; Rpc_calls; Rpc_timeouts; Hier_rounds;
    Hier_corrections; Hier_elections;
  ]

type hkey = Ccs_adjustment_us | Rpc_latency_us

let hkey_index = function Ccs_adjustment_us -> 0 | Rpc_latency_us -> 1
let hkey_name = function
  | Ccs_adjustment_us -> "ccs_adjustment_us"
  | Rpc_latency_us -> "rpc_latency_us"

let all_hkeys = [ Ccs_adjustment_us; Rpc_latency_us ]

let make_hist = function
  (* Group-clock adjustments are signed and µs-scale (paper §3.4). *)
  | Ccs_adjustment_us -> Stats.Histogram.create ~lo:(-500.) ~bin_width:5. ()
  (* End-to-end invocation latency sits around one token rotation. *)
  | Rpc_latency_us -> Stats.Histogram.create ~bin_width:25. ()

type t = {
  counters : int array;
  hists : Stats.Histogram.t array;
  mutable gauges : (string * float ref) list;
}

let create () =
  {
    counters = Array.make key_count 0;
    hists = Array.of_list (List.map make_hist all_hkeys);
    gauges = [];
  }

let incr t k =
  let i = key_index k in
  Array.unsafe_set t.counters i (Array.unsafe_get t.counters i + 1)

let add t k n =
  let i = key_index k in
  Array.unsafe_set t.counters i (Array.unsafe_get t.counters i + n)

let get t k = t.counters.(key_index k)
let observe t hk v = Stats.Histogram.add t.hists.(hkey_index hk) v
let hist t hk = t.hists.(hkey_index hk)

let gauge t name =
  match List.assoc_opt name t.gauges with
  | Some r -> r
  | None ->
      let r = ref 0. in
      t.gauges <- (name, r) :: t.gauges;
      r

let reset t =
  Array.fill t.counters 0 key_count 0;
  List.iteri (fun i hk -> t.hists.(i) <- make_hist hk) all_hkeys;
  List.iter (fun (_, r) -> r := 0.) t.gauges

(* ------------------------------------------------------------------ *)
(* The stream fold                                                     *)

(* Counter bumped by each record kind; a kind absent here feeds no
   counter, or only a histogram (below). *)
let counted =
  Recorder.
    [
      (k_fiber_spawn, Fiber_spawns); (k_fiber_switch, Fiber_switches);
      (k_send, Net_sent); (k_deliver, Net_delivered); (k_drop, Net_dropped);
      (k_token, Totem_tokens); (k_operational, Totem_views);
      (k_view, Gcs_views); (k_ccs_open, Ccs_rounds); (k_ccs_settle, Ccs_wins);
      (k_ccs_suppress, Ccs_suppressed); (k_ccs_discard, Ccs_discards);
      (k_ccs_offset, Ccs_offset_updates); (k_repl_request, Repl_requests);
      (k_rpc_begin, Rpc_calls); (k_hier_round, Hier_rounds);
      (k_hier_correct, Hier_corrections); (k_hier_elect, Hier_elections);
    ]

let add_record t ~kind ~a ~b =
  (match List.assoc_opt kind counted with Some k -> incr t k | None -> ());
  if kind = Recorder.k_ccs_offset then
    observe t Ccs_adjustment_us (float_of_int b)
  else if kind = Recorder.k_rpc_end then begin
    if b = 1 then incr t Rpc_timeouts
    else observe t Rpc_latency_us (float_of_int a)
  end
  else if kind = Recorder.k_repl_checkpoint && b = 0 then
    incr t Repl_checkpoints

let of_recorder ?(engine_events = 0) r =
  let t = create () in
  add t Engine_events engine_events;
  Recorder.iter r (fun ~kind ~ts_us:_ ~node:_ ~a ~b -> add_record t ~kind ~a ~b);
  t

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)

let buf_float b v =
  (* %.17g round-trips but is noisy; %g at 12 digits is plenty for
     counters-derived rates and keeps the snapshot readable. *)
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" v)
  else Buffer.add_string b (Printf.sprintf "%.12g" v)

let hist_json b h =
  Buffer.add_string b "{\"count\":";
  Buffer.add_string b (string_of_int (Stats.Histogram.count h));
  if Stats.Histogram.count h > 0 then begin
    Buffer.add_string b ",\"mode_bin_mid\":";
    buf_float b (Stats.Histogram.bin_mid h (Stats.Histogram.mode_bin h));
    (* fig5-style latency reporting wants percentiles, not just the
       mode; resolution is the histogram's bin width *)
    List.iter
      (fun (name, q) ->
        Buffer.add_string b (Printf.sprintf ",\"%s\":" name);
        buf_float b (Stats.Histogram.quantile h q))
      [ ("p50", 0.5); ("p95", 0.95); ("p99", 0.99) ]
  end;
  Buffer.add_char b '}'

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"counters\": {";
  List.iteri
    (fun i k ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": %d" (key_name k) (get t k)))
    all_keys;
  Buffer.add_string b "},\n  \"gauges\": {";
  List.iteri
    (fun i (name, r) ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " name);
      buf_float b !r)
    (List.rev t.gauges);
  Buffer.add_string b "},\n  \"histograms\": {";
  List.iteri
    (fun i hk ->
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "\"%s\": " (hkey_name hk));
      hist_json b t.hists.(hkey_index hk))
    all_hkeys;
  Buffer.add_string b "}\n}\n";
  Buffer.contents b
