type phase = Begin | End | Instant

type source =
  (ph:phase -> ts_ns:int -> pid:int -> sub:Subsystem.t -> name:string ->
   args:(string * int) list -> unit) -> unit

(* ------------------------------------------------------------------ *)
(* The Chrome trace-event writer                                       *)

(* Simulated time is integer nanoseconds; Chrome's [ts] field is
   microseconds but accepts fractions, so ns precision survives as three
   decimals and per-thread ordering is preserved exactly. *)
let add_ts b ts_ns =
  Out.int b (ts_ns / 1000);
  Buffer.add_char b '.';
  let frac = ts_ns mod 1000 in
  if frac < 100 then Buffer.add_char b '0';
  if frac < 10 then Buffer.add_char b '0';
  Out.int b frac

let add_meta b ~pid ~tid ~kind ~name =
  Printf.bprintf b
    "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":" kind
    pid tid;
  Out.json_string b name;
  Buffer.add_string b "}}"

let add_event b ~ph ~ts_ns ~pid ~sub ~name ~args =
  Buffer.add_string b "{\"name\":";
  Out.json_string b name;
  Buffer.add_string b
    (match ph with
    | Begin -> ",\"ph\":\"B\",\"ts\":"
    | End -> ",\"ph\":\"E\",\"ts\":"
    | Instant -> ",\"ph\":\"I\",\"ts\":");
  add_ts b ts_ns;
  Buffer.add_string b ",\"pid\":";
  Out.int b pid;
  Buffer.add_string b ",\"tid\":";
  Out.int b (Subsystem.to_int sub);
  (match ph with
  | Instant -> Buffer.add_string b ",\"s\":\"t\""
  | Begin | End -> ());
  (match args with
  | [] -> ()
  | args ->
      Buffer.add_string b ",\"args\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Out.json_string b k;
          Buffer.add_char b ':';
          Out.int b v)
        args;
      Buffer.add_char b '}');
  Buffer.add_char b '}'

let default_process_name pid = "replica " ^ string_of_int pid

let write_chrome ?(process_name = default_process_name) oc source =
  (* Metadata pass: one process per pid, one named thread per (pid,
     subsystem) row the events actually use.  [pid * count + tid] orders
     as the pair does. *)
  let rows = Hashtbl.create 64 in
  source (fun ~ph:_ ~ts_ns:_ ~pid ~sub ~name:_ ~args:_ ->
      let key = (pid * Subsystem.count) + Subsystem.to_int sub in
      if not (Hashtbl.mem rows key) then Hashtbl.add rows key (pid, sub));
  let b = Buffer.create 65_536 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let sep = ref "" in
  let entry () =
    Buffer.add_string b !sep;
    sep := ",\n"
  in
  let last_pid = ref None in
  (* Sort applied directly to the fold: the hash order never escapes
     (ctslint's hash-order rule recognizes exactly this shape). *)
  List.iter
    (fun key ->
      let pid, sub = Hashtbl.find rows key in
      if !last_pid <> Some pid then begin
        last_pid := Some pid;
        entry ();
        add_meta b ~pid ~tid:0 ~kind:"process_name" ~name:(process_name pid)
      end;
      entry ();
      add_meta b ~pid ~tid:(Subsystem.to_int sub) ~kind:"thread_name"
        ~name:(Subsystem.name sub))
    (List.sort Int.compare (Hashtbl.fold (fun k _ acc -> k :: acc) rows []));
  source (fun ~ph ~ts_ns ~pid ~sub ~name ~args ->
      entry ();
      add_event b ~ph ~ts_ns ~pid ~sub ~name ~args;
      Out.spill oc b);
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.output_buffer oc b

(* ------------------------------------------------------------------ *)
(* The span buffer                                                     *)

type event = {
  ph : phase;
  ts_ns : int;
  pid : int;
  sub : Subsystem.t;
  name : string;
  args : (string * int) list;
}

type t = {
  capacity : int;
  mutable events : event list; (* newest first *)
  mutable n : int;
  mutable dropped : int;
}

let create ?(capacity = 1_000_000) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; events = []; n = 0; dropped = 0 }

let length t = t.n
let dropped t = t.dropped

let record t ph ~ts_ns ~pid ~sub ~name ~args =
  if t.n >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    t.events <- { ph; ts_ns; pid; sub; name; args } :: t.events;
    t.n <- t.n + 1
  end

let span_begin t = record t Begin
let span_end t = record t End

let write_chrome_file ?process_name t path =
  let events = List.rev t.events in
  Out_channel.with_open_text path (fun oc ->
      write_chrome ?process_name oc (fun f ->
          List.iter
            (fun e ->
              f ~ph:e.ph ~ts_ns:e.ts_ns ~pid:e.pid ~sub:e.sub ~name:e.name
                ~args:e.args)
            events))

(* ------------------------------------------------------------------ *)
(* Validation: a minimal JSON reader (no external deps are available)
   plus the schema checks CI relies on — well-formed JSON, the
   trace-event envelope, and per-(pid, tid) timestamp monotonicity. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* The first reason a trace is rejected. *)
exception Invalid of string

let invalid fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = invalid "not well-formed JSON: %s at byte %d" msg !pos in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          advance ();
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("bad literal " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          let esc c =
            Buffer.add_char b c;
            advance ()
          in
          (match s.[!pos] with
          | ('"' | '\\' | '/') as c -> esc c
          | 'b' -> esc '\b'
          | 'f' -> esc '\012'
          | 'n' -> esc '\n'
          | 'r' -> esc '\r'
          | 't' -> esc '\t'
          | 'u' ->
              let hex i =
                !pos + i < n
                &&
                match s.[!pos + i] with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              if not (hex 1 && hex 2 && hex 3 && hex 4) then
                fail "bad \\u escape";
              (* Code points above the validator's needs collapse to '?';
                 the traces we emit are ASCII. *)
              Buffer.add_char b '?';
              pos := !pos + 5
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  (* JSON's number grammar: an optional minus, then 0 or digits not
     starting with 0, then an optional fraction (a dot and digits) and
     an optional exponent (e or E, an optional sign, digits). *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let from = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      if !pos = from then fail "malformed number"
    in
    if peek () = '-' then advance ();
    if peek () = '0' then advance () else digits ();
    if peek () = '.' then begin
      advance ();
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      digits ()
    end;
    float_of_string (String.sub s start (!pos - start))
  in
  (* The items of an object or array, after its opening bracket. *)
  let sequence close item =
    advance ();
    skip_ws ();
    if peek () = close then begin
      advance ();
      []
    end
    else
      let rec items acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
            advance ();
            items acc
        | c when c = close ->
            advance ();
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      items []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, parse_value ())))
    | '[' -> Arr (sequence ']' parse_value)
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

type summary = {
  v_events : int;  (** non-metadata trace events *)
  v_pids : int;
  v_subsystems : string list;  (** distinct thread names, sorted *)
}

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let validate_events events =
  (* Last timestamp and open-span depth per (pid, tid). *)
  let last_ts = Hashtbl.create 64 and depth = Hashtbl.create 64 in
  let pids = Hashtbl.create 16 and subs = Hashtbl.create 16 in
  let count = ref 0 in
  let check i e =
    match (member "ph" e, member "pid" e, member "tid" e) with
    | Some (Str ph), Some (Num pid), Some (Num tid) -> (
        let pid = int_of_float pid and tid = int_of_float tid in
        match (ph, member "ts" e) with
        | "M", _ -> (
            let args = member "args" e in
            match (member "name" e, Option.bind args (member "name")) with
            | Some (Str "thread_name"), Some (Str sub) ->
                Hashtbl.replace subs sub ()
            | _ -> ())
        | ("B" | "E" | "I"), Some (Num ts) ->
            incr count;
            Hashtbl.replace pids pid ();
            (match Hashtbl.find_opt last_ts (pid, tid) with
            | Some prev when ts < prev ->
                invalid "event %d: ts %.3f < %.3f on pid %d tid %d" i ts prev
                  pid tid
            | _ -> Hashtbl.replace last_ts (pid, tid) ts);
            let d =
              Option.value ~default:0 (Hashtbl.find_opt depth (pid, tid))
              + (match ph with "B" -> 1 | "E" -> -1 | _ -> 0)
            in
            if d < 0 then
              invalid "event %d: span end without begin on pid %d tid %d" i
                pid tid;
            Hashtbl.replace depth (pid, tid) d
        | ("B" | "E" | "I"), _ -> invalid "event %d: missing ts" i
        | ph, _ -> invalid "event %d: unknown ph %S" i ph)
    | _ -> invalid "event %d: missing ph/pid/tid" i
  in
  List.iteri check events;
  (* A positive final depth is fine — the capture may end while spans are
     still open (Chrome renders them as unfinished); only an End without
     a matching Begin is a schema violation. *)
  {
    v_events = !count;
    v_pids = Hashtbl.length pids;
    v_subsystems =
      List.sort String.compare
        (Hashtbl.fold (fun sub () acc -> sub :: acc) subs []);
  }

let validate_string s =
  match
    match member "traceEvents" (parse_json s) with
    | Some (Arr events) -> validate_events events
    | Some _ -> invalid "traceEvents is not an array"
    | None -> invalid "missing traceEvents member"
  with
  | summary -> Ok summary
  | exception Invalid e -> Error e

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> validate_string s
