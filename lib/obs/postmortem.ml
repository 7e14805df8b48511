(* Post-hoc diagnosis over a dumped flight-recorder window.

   The on-disk format is a line-oriented text file meant to survive in
   a bug report:

     # ctsim flight recorder v2
     # total <n> dropped <n>
     R <kind> <ts_us> <node> <a> <b>        one line per record
     I <inv> <first_us> <last_us> <count> <worst> <node> <at>

   [report] decodes the window into a human-readable causal timeline:
   records are printed oldest-to-newest with their kind's payload
   names, deliveries and drops are matched back to their send (per
   (src, dst) FIFO order — the same in-order delivery contract
   [Netsim.Network] enforces), and each verdict is traced back to a
   suspect: for a token-liveness verdict, the last accepted token
   fixes the node that held the token when the ring went quiet, and
   the first drop sourced at that node names the faulted hop.  A
   verdict whose witnessing record is inside the window marks it. *)

type record = { kind : int; ts_us : int; node : int; a : int; b : int }

type window = {
  records : record array; (* oldest first *)
  verdicts : Check.verdict list;
  w_total : int; (* records ever emitted, pre-wrap *)
  w_dropped : int; (* records lost to wrap *)
}

(* ------------------------------------------------------------------ *)
(* Dump / load                                                         *)

let header = "# ctsim flight recorder v2"

(* [spill] runs between lines: a no-op into a string, {!Out.spill} into
   a file. *)
let write_window ~spill b (recorder : Recorder.t) verdicts =
  Buffer.add_string b header;
  Buffer.add_string b "\n# total ";
  Out.int b (Recorder.total recorder);
  Buffer.add_string b " dropped ";
  Out.int b (Recorder.dropped recorder);
  Buffer.add_char b '\n';
  let field v =
    Buffer.add_char b ' ';
    Out.int b v
  in
  Recorder.iter recorder (fun ~kind ~ts_us ~node ~a ~b:pb ->
      Buffer.add_char b 'R';
      field kind;
      field ts_us;
      field node;
      field a;
      field pb;
      Buffer.add_char b '\n';
      spill b);
  List.iter
    (fun (v : Check.verdict) ->
      Printf.bprintf b "I %s %d %d %d %d %d %d\n" v.inv v.first_us v.last_us
        v.count v.worst v.node v.at)
    verdicts

let dump_string recorder verdicts =
  let b = Buffer.create 4096 in
  write_window ~spill:ignore b recorder verdicts;
  Buffer.contents b

let dump_file recorder verdicts path =
  Out_channel.with_open_text path (fun oc ->
      let b = Buffer.create 65_536 in
      write_window ~spill:(Out.spill oc) b recorder verdicts;
      Buffer.output_buffer oc b)

let parse_error line msg =
  Error (Printf.sprintf "flight window parse error, line %d: %s" line msg)

let load_string s =
  let lines = String.split_on_char '\n' s in
  match lines with
  | first :: rest when String.trim first = header ->
      let records = ref [] and verdicts = ref [] in
      let total = ref 0 and dropped = ref 0 in
      let err = ref None in
      List.iteri
        (fun i line ->
          let lineno = i + 2 in
          let line = String.trim line in
          if !err = None && line <> "" then
            match String.split_on_char ' ' line with
            | "R" :: fields -> (
                match List.map int_of_string_opt fields with
                | [ Some kind; Some ts_us; Some node; Some a; Some b ] ->
                    records := { kind; ts_us; node; a; b } :: !records
                | _ -> err := Some (lineno, "malformed R record"))
            | "I" :: inv :: fields -> (
                match List.map int_of_string_opt fields with
                | [ Some first_us; Some last_us; Some count; Some worst;
                    Some node; Some at ] ->
                    verdicts :=
                      { Check.inv; at; first_us; last_us; count; worst; node }
                      :: !verdicts
                | _ -> err := Some (lineno, "malformed I record"))
            | "#" :: "total" :: [ t; "dropped"; d ] ->
                total := Option.value ~default:0 (int_of_string_opt t);
                dropped := Option.value ~default:0 (int_of_string_opt d)
            | s :: _ when String.length s > 0 && s.[0] = '#' -> ()
            | _ -> err := Some (lineno, "unrecognized line"))
        rest;
      (match !err with
      | Some (lineno, msg) -> parse_error lineno msg
      | None ->
          let records = Array.of_list (List.rev !records) in
          let total = if !total = 0 then Array.length records else !total in
          Ok
            {
              records;
              verdicts = List.rev !verdicts;
              w_total = total;
              w_dropped = !dropped;
            })
  | _ -> parse_error 1 (Printf.sprintf "missing %S header" header)

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> load_string s
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Lineage: match deliveries / drops back to sends                     *)

(* Sends carry dst in [a] (-1 for broadcast); deliveries and drops run
   at the destination with src in [a].  Per (src, dst) the network is
   FIFO, so matching is queue-pop in record order.  Broadcast sends
   fan out, so a broadcast send queue is peeked rather than popped. *)

let sent_at w =
  let n = Array.length w.records in
  let sent = Array.make n (-1) in
  let pending : (int * int, int Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let bcast : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i r ->
      if r.kind = Recorder.k_send then
        if r.a < 0 then Hashtbl.replace bcast r.node i
        else begin
          let key = (r.node, r.a) in
          let q =
            match Hashtbl.find_opt pending key with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.add pending key q;
                q
          in
          Queue.push i q
        end
      else if r.kind = Recorder.k_deliver || r.kind = Recorder.k_drop then begin
        let key = (r.a, r.node) in
        match Hashtbl.find_opt pending key with
        | Some q when not (Queue.is_empty q) -> sent.(i) <- Queue.pop q
        | _ -> (
            match Hashtbl.find_opt bcast r.a with
            | Some j -> sent.(i) <- j
            | None -> ())
      end)
    w.records;
  sent

(* ------------------------------------------------------------------ *)
(* Suspect analysis                                                    *)

type suspect = {
  s_inv : string;
  s_desc : string; (* one-line human description of the faulted hop *)
  s_record : int option; (* index of the pivotal record, if any *)
}

let find_last w ?(before = max_int) p =
  let found = ref None in
  Array.iteri
    (fun i r -> if r.ts_us <= before && p r then found := Some i)
    w.records;
  !found

let find_first w ?(after = min_int) p =
  let found = ref None in
  Array.iteri
    (fun i r ->
      if !found = None && r.ts_us >= after && p r then found := Some i)
    w.records;
  !found

(* The window position of a verdict's witnessing record, when the
   window still holds it: its first record is number [w_dropped]. *)
let witness w (v : Check.verdict) =
  let i = v.at - w.w_dropped in
  if i >= 0 && i < Array.length w.records then Some i else None

(* A verdict's witness is marked in the timeline.  Only a token-liveness
   verdict needs a search: its witness is merely the first record after
   the silence, while the node that last accepted the token is where the
   ring went quiet, and the first drop sourced there names the hop. *)
let suspect_of_verdict w (v : Check.verdict) =
  let suspect s_desc s_record = { s_inv = v.inv; s_desc; s_record } in
  if v.inv <> "token-liveness" then
    suspect
      (Printf.sprintf "worst %d at node %d; witness: record %d%s" v.worst
         v.node v.at
         (if witness w v = None then " (not in the window)" else ""))
      None
  else
    match
      find_last w ~before:v.first_us (fun r -> r.kind = Recorder.k_token)
    with
    | None ->
        suspect
          (Printf.sprintf "no token in the window; ring was silent for %d us"
             v.worst)
          None
    | Some ti -> (
        let t = w.records.(ti) in
        match
          find_first w ~after:t.ts_us (fun r ->
              r.kind = Recorder.k_drop && r.a = t.node)
        with
        | Some di ->
            let d = w.records.(di) in
            suspect
              (Printf.sprintf
                 "token last accepted by node %d (seq %d) at %d us; next hop \
                  %d -> %d dropped (%s) at %d us"
                 t.node t.a t.ts_us t.node d.node
                 (Recorder.drop_reason_name d.b)
                 d.ts_us)
              (Some di)
        | None ->
            suspect
              (Printf.sprintf
                 "token last accepted by node %d (seq %d) at %d us; no \
                  onward delivery recorded"
                 t.node t.a t.ts_us)
              (Some ti))

let suspects w = List.map (suspect_of_verdict w) w.verdicts

(* ------------------------------------------------------------------ *)
(* Report                                                              *)

let pp_record ppf w sent ~suspect ~verdict i =
  let r = w.records.(i) in
  Format.fprintf ppf "%10d us  node %-3d %-8s %-13s" r.ts_us r.node
    (Subsystem.name (Recorder.kind_sub r.kind))
    (Recorder.kind_name r.kind);
  List.iter
    (fun (name, v) -> Format.fprintf ppf " %s=%d" name v)
    (Recorder.args ~kind:r.kind ~a:r.a ~b:r.b);
  if r.kind = Recorder.k_drop then
    Format.fprintf ppf " (%s)" (Recorder.drop_reason_name r.b);
  if sent.(i) >= 0 then begin
    let s = w.records.(sent.(i)) in
    Format.fprintf ppf "  [sent %d us ago by node %d]" (r.ts_us - s.ts_us)
      s.node
  end;
  if List.mem i verdict then Format.fprintf ppf "   <-- verdict";
  if List.mem i suspect then Format.fprintf ppf "   <-- suspect"

let report ?(tail = 40) ppf w =
  let n = Array.length w.records in
  let sent = sent_at w in
  let sus = suspects w in
  let suspect = List.filter_map (fun s -> s.s_record) sus in
  let verdict = List.filter_map (witness w) w.verdicts in
  Format.fprintf ppf "flight window: %d record(s) held, %d emitted, %d lost \
                      to wrap@."
    n w.w_total w.w_dropped;
  (match w.verdicts with
  | [] -> Format.fprintf ppf "verdicts: none@."
  | vs ->
      Format.fprintf ppf "verdicts:@.";
      List.iter (fun v -> Format.fprintf ppf "  %a@." Check.pp_verdict v) vs);
  List.iter
    (fun s -> Format.fprintf ppf "suspect [%s]: %s@." s.s_inv s.s_desc)
    sus;
  (* print marked records that fall before the tail, then the tail *)
  let first_tail = max 0 (n - tail) in
  let early_marks =
    List.filter (fun i -> i < first_tail)
      (List.sort_uniq Int.compare (suspect @ verdict))
  in
  let pp_at ppf i = pp_record ppf w sent ~suspect ~verdict i in
  Format.fprintf ppf "timeline (last %d of %d record(s)):@." (n - first_tail)
    n;
  List.iter (fun i -> Format.fprintf ppf "  %a@." pp_at i) early_marks;
  if first_tail > 0 then Format.fprintf ppf "  ...@.";
  for i = first_tail to n - 1 do
    Format.fprintf ppf "  %a@." pp_at i
  done
