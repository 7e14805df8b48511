(* Model-based property test of the unboxed Dsim.Event_queue: random
   push/pop/pop_nth/clear/trim sequences checked against a naive
   sorted-list reference, including the (time, insertion-seq) tie-break,
   the FIFO-rank semantics of pop_nth that the mc controller relies on,
   and the pairing of the two payload lanes across a trim's slot
   renumbering.  Plus: a popped payload is not retained. *)

module Time = Dsim.Time
module Eq = Dsim.Event_queue

type op =
  | Push of int
  | Burst of int
  | Pop
  | Pop_min
  | Pop_nth of int
  | Clear
  | Trim

let pp_op = function
  | Push t -> Printf.sprintf "push@%d" t
  | Burst k -> Printf.sprintf "burst %d" k
  | Trim -> "trim"
  | Pop -> "pop"
  | Pop_min -> "pop_min"
  | Pop_nth n -> Printf.sprintf "pop_nth %d" n
  | Clear -> "clear"

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun t -> Push t) (int_range 0 15));
        (3, return Pop);
        (3, return Pop_min);
        (2, map (fun n -> Pop_nth n) (int_range 0 5));
        (1, return Clear);
        (* bursts push the queue past its minimum capacity, so a later
           trim has lanes to shrink *)
        (1, map (fun k -> Burst k) (int_range 20 150));
        (2, return Trim);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck.Gen.(list_size (int_range 0 300) op_gen)

(* Reference model: a list of (time, seq, id), kept unordered; every
   query sorts.  [pop_nth n] removes the n-th (clamped, by insertion
   order) among the entries sharing the minimum time. *)
let model_min model =
  List.fold_left
    (fun acc (at, seq, id) ->
      match acc with
      | None -> Some (at, seq, id)
      | Some (at', seq', _) when at < at' || (at = at' && seq < seq') ->
          Some (at, seq, id)
      | some -> some)
    None model

let model_pop_nth model n =
  match model_min model with
  | None -> (None, model)
  | Some (min_at, _, _) ->
      let ready =
        List.filter (fun (at, _, _) -> at = min_at) model
        |> List.sort (fun (_, s1, _) (_, s2, _) -> compare s1 s2)
      in
      let k = if n <= 0 then 0 else min n (List.length ready - 1) in
      let _, seq, id = List.nth ready k in
      (Some (min_at, id), List.filter (fun (_, s, _) -> s <> seq) model)

let model_ready_count model =
  match model_min model with
  | None -> 0
  | Some (min_at, _, _) ->
      List.length (List.filter (fun (at, _, _) -> at = min_at) model)

let label id = Printf.sprintf "p%d" id

let prop_matches_model =
  QCheck.Test.make ~count:200 ~name:"event_queue matches sorted-list model"
    ops_arb
    (fun ops ->
      (* lane 1 holds ["p<id>"], lane 2 holds [id]: every pop checks the
         pair still matches *)
      let q = Eq.create () in
      let model = ref [] in
      let next_id = ref 0 in
      let seq = ref 0 in
      let push t =
        let id = !next_id in
        incr next_id;
        Eq.push q (Time.of_ns t) (label id) id;
        model := (t, !seq, id) :: !model;
        incr seq
      in
      let paired what = function
        | None -> None
        | Some (at, fn, id) ->
            if not (String.equal fn (label id)) then
              QCheck.Test.fail_reportf "%s: lanes unpaired (%s, %d)" what fn id;
            Some (at, id)
      in
      let same_opt what got expect =
        if got <> expect then
          QCheck.Test.fail_reportf "%s: queue %s, model %s" what
            (match got with
            | None -> "None"
            | Some (at, id) -> Printf.sprintf "(%d, %d)" (Time.to_ns at) id)
            (match expect with
            | None -> "None"
            | Some (at, id) -> Printf.sprintf "(%d, %d)" (Time.to_ns at) id)
      in
      List.iter
        (fun op ->
          (match op with
          | Push t -> push t
          | Burst k ->
              for _ = 1 to k do
                push (!next_id * 7 mod 16)
              done
          | Pop ->
              let got = paired "pop" (Eq.pop q) in
              let expect, model' = model_pop_nth !model 0 in
              model := model';
              same_opt "pop" got
                (Option.map (fun (at, id) -> (Time.of_ns at, id)) expect)
          | Pop_min ->
              (* The engine's allocation-free fast path: min_time_exn
                 followed by pop_min_exn must agree with [pop]. *)
              let got =
                if Eq.is_empty q then None
                else
                  let at = Eq.min_time_exn q in
                  let fn, id = Eq.pop_min_exn q in
                  paired "pop_min" (Some (at, fn, id))
              in
              let expect, model' = model_pop_nth !model 0 in
              model := model';
              same_opt "pop_min" got
                (Option.map (fun (at, id) -> (Time.of_ns at, id)) expect)
          | Pop_nth n ->
              let what = Printf.sprintf "pop_nth %d" n in
              let got = paired what (Eq.pop_nth q n) in
              let expect, model' = model_pop_nth !model n in
              model := model';
              same_opt what got
                (Option.map (fun (at, id) -> (Time.of_ns at, id)) expect)
          | Clear ->
              Eq.clear q;
              model := []
          | Trim -> Eq.trim q);
          if Eq.length q <> List.length !model then
            QCheck.Test.fail_reportf "length: queue %d, model %d"
              (Eq.length q) (List.length !model);
          if Eq.ready_count q <> model_ready_count !model then
            QCheck.Test.fail_reportf "ready_count: queue %d, model %d"
              (Eq.ready_count q)
              (model_ready_count !model);
          match Eq.peek_time q with
          | Some at
            when Some (Time.to_ns at)
                 <> Option.map (fun (a, _, _) -> a) (model_min !model) ->
              QCheck.Test.fail_reportf "peek_time mismatch"
          | None when !model <> [] ->
              QCheck.Test.fail_reportf "peek_time None on non-empty"
          | _ -> ())
        ops;
      (* drain what remains and verify global (time, insertion) order *)
      let rec drain () =
        match paired "drain" (Eq.pop q) with
        | None ->
            if !model <> [] then QCheck.Test.fail_reportf "drain: model not empty"
        | Some (at, id) ->
            let expect, model' = model_pop_nth !model 0 in
            model := model';
            same_opt "drain" (Some (at, id))
              (Option.map (fun (a, i) -> (Time.of_ns a, i)) expect);
            drain ()
      in
      drain ();
      true)

let drain_ids q =
  let rec go acc =
    match Eq.pop q with None -> List.rev acc | Some (_, (), id) -> go (id :: acc)
  in
  go []

let test_trim_empty () =
  (* never pushed: nothing to release, and the queue still works *)
  let q = Eq.create () in
  Eq.trim q;
  Alcotest.(check bool) "fresh queue empty after trim" true (Eq.is_empty q);
  Eq.push q (Time.of_ns 5) () 1;
  Alcotest.(check (list int)) "usable after trim" [ 1 ] (drain_ids q);
  (* drained after a burst: trim back to the minimum, then reuse *)
  for i = 0 to 999 do
    Eq.push q (Time.of_ns i) () i
  done;
  ignore (drain_ids q : int list);
  Eq.trim q;
  Alcotest.(check int) "empty after trim" 0 (Eq.length q);
  Alcotest.(check (option int)) "no head" None
    (Option.map Time.to_ns (Eq.peek_time q));
  Eq.push q (Time.of_ns 3) () 7;
  Alcotest.(check (list int)) "usable after trimming a drained burst" [ 7 ]
    (drain_ids q)

let test_trim_then_grow () =
  (* a burst, a partial drain, a trim, then growth well past the trimmed
     capacity: global (time, insertion) order holds throughout *)
  let q = Eq.create () in
  let expect = ref [] in
  let push id =
    let at = id * 37 mod 101 in
    Eq.push q (Time.of_ns at) () id;
    expect := (at, id) :: !expect
  in
  for id = 0 to 4999 do
    push id
  done;
  let sorted () = List.sort compare !expect in
  for _ = 1 to 4900 do
    ignore (Eq.pop q)
  done;
  expect := List.filteri (fun i _ -> i >= 4900) (sorted ());
  Eq.trim q;
  Alcotest.(check int) "pending kept" 100 (Eq.length q);
  for id = 5000 to 9999 do
    push id
  done;
  Alcotest.(check (list int)) "order after trim and growth"
    (List.map snd (sorted ()))
    (drain_ids q)

(* A popped payload must not stay reachable from the queue.  [grow] used
   to fill fresh payload slots with the payload being pushed, so every
   free slot pinned it after its pop. *)
let push_big q w =
  let big = Bytes.make (1 lsl 20) 'x' in
  Weak.set w 0 (Some big);
  Eq.push q (Time.of_ns 1) (fun () -> ignore (Bytes.length big : int)) ()
[@@inline never]

let test_popped_payload_released () =
  let q = Eq.create () in
  let w = Weak.create 1 in
  push_big q w;
  (match Eq.pop q with Some (_, f, ()) -> f () | None -> assert false);
  Gc.full_major ();
  Alcotest.(check bool) "1 MB closure collected after its pop" true
    (Option.is_none (Weak.get w 0));
  (* keeps [q] live across the collection *)
  Eq.push q (Time.of_ns 2) ignore ();
  Alcotest.(check int) "queue still usable" 1 (Eq.length q)

let suites =
  [
    ( "dsim.event_queue_model",
      [
        QCheck_alcotest.to_alcotest prop_matches_model;
        Alcotest.test_case "trim on an empty queue" `Quick test_trim_empty;
        Alcotest.test_case "trim then grow" `Quick test_trim_then_grow;
        Alcotest.test_case "popped payload released" `Quick
          test_popped_payload_released;
      ] );
  ]
