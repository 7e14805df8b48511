(* Further Totem tests: the message store, flow control, token
   retransmission, garbage collection, large rings, and wire pretty
   printers. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let n = Nid.of_int

(* ------------------------------------------------------------------ *)
(* Store *)

let ring = Totem.Ring_id.make ~rep:(n 0) ~gen:1

let msg seq : string Totem.Wire.regular =
  { ring; seq; sender = n 0; payload = Printf.sprintf "m%d" seq }

let test_store_contiguous_aru () =
  let s = Totem.Store.create () in
  check int "empty aru" 0 (Totem.Store.aru s);
  check bool "add 1" true (Totem.Store.add s (msg 1));
  check bool "add 3" true (Totem.Store.add s (msg 3));
  check int "aru stops at gap" 1 (Totem.Store.aru s);
  check bool "add 2 fills gap" true (Totem.Store.add s (msg 2));
  check int "aru jumps" 3 (Totem.Store.aru s);
  check int "high" 3 (Totem.Store.high_seq s)

let test_store_duplicate_detection () =
  let s = Totem.Store.create () in
  check bool "first" true (Totem.Store.add s (msg 5));
  check bool "duplicate" false (Totem.Store.add s (msg 5))

let test_store_delivery_cursor () =
  let s = Totem.Store.create () in
  List.iter (fun k -> ignore (Totem.Store.add s (msg k))) [ 1; 2; 4 ];
  (match Totem.Store.next_to_deliver s with
  | Some m -> check int "next is 1" 1 m.Totem.Wire.seq
  | None -> Alcotest.fail "expected a deliverable message");
  Totem.Store.set_delivered s 2;
  check bool "gap blocks delivery" true (Totem.Store.next_to_deliver s = None);
  Alcotest.check_raises "cursor cannot go back"
    (Invalid_argument "Store.set_delivered: going backwards") (fun () ->
      Totem.Store.set_delivered s 1)

let test_store_missing_and_held () =
  let s = Totem.Store.create () in
  List.iter (fun k -> ignore (Totem.Store.add s (msg k))) [ 1; 3; 5 ];
  check (Alcotest.list int) "missing" [ 2; 4; 6 ]
    (Totem.Store.missing_up_to s 6);
  check (Alcotest.list int) "held" [ 1; 3; 5 ]
    (Totem.Store.held_in s ~lo:1 ~hi:6);
  check (Alcotest.list int) "held window" [ 3 ]
    (Totem.Store.held_in s ~lo:2 ~hi:4)

let test_store_gc () =
  let s = Totem.Store.create () in
  for k = 1 to 10 do
    ignore (Totem.Store.add s (msg k))
  done;
  Totem.Store.set_delivered s 10;
  Totem.Store.gc s ~upto:7;
  check bool "gc'd seqs count as present" true (Totem.Store.has s 3);
  check bool "gc'd seqs not retrievable" true (Totem.Store.find s 3 = None);
  check bool "kept seqs retrievable" true (Totem.Store.find s 8 <> None);
  (* re-adding below the floor is a duplicate *)
  check bool "below floor duplicate" false (Totem.Store.add s (msg 3))

let prop_store_aru_is_contiguous_prefix =
  QCheck.Test.make ~count:200 ~name:"store aru = longest contiguous prefix"
    QCheck.(list_of_size (Gen.int_range 0 30) (int_range 1 40))
    (fun seqs ->
      let s = Totem.Store.create () in
      List.iter (fun k -> ignore (Totem.Store.add s (msg k))) seqs;
      let present k = List.mem k seqs in
      let rec expected k = if present (k + 1) then expected (k + 1) else k in
      Totem.Store.aru s = expected 0)

(* ------------------------------------------------------------------ *)
(* Protocol-level *)

type harness = {
  eng : Dsim.Engine.t;
  net : string Totem.Wire.t Netsim.Network.t;
  nodes : string Totem.Node.t array;
  delivered : string list ref array;
}

let make ?(seed = 1L) ?(loss = 0.) ?config count =
  let eng = Dsim.Engine.create ~seed () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss;
      }
  in
  let delivered = Array.init count (fun _ -> ref []) in
  let nodes =
    Array.init count (fun i ->
        Totem.Node.create eng net ~me:(n i) ?config
          ~handler:(fun ev ->
            match ev with
            | Totem.Node.Deliver { payload; _ } ->
                delivered.(i) := payload :: !(delivered.(i))
            | Totem.Node.View _ | Totem.Node.Blocked -> ())
          ())
  in
  Array.iter Totem.Node.start nodes;
  Dsim.Engine.run ~until:(Time.of_ms 50) eng;
  { eng; net; nodes; delivered }

let run_for h ms =
  Dsim.Engine.run ~until:(Time.add (Dsim.Engine.now h.eng) (Span.of_ms ms))
    h.eng

let test_flow_control_caps_per_visit () =
  let config =
    { Totem.Config.default with max_msgs_per_visit = 5; window = 100 }
  in
  let h = make ~config 3 in
  (* queue far more than one visit's budget *)
  for k = 1 to 23 do
    Totem.Node.multicast h.nodes.(0) (string_of_int k)
  done;
  check int "queued" 23 (Totem.Node.pending h.nodes.(0));
  run_for h 100;
  check int "all delivered eventually" 23
    (List.length !(h.delivered.(1)));
  (* FIFO preserved under batching *)
  check
    (Alcotest.list Alcotest.string)
    "order preserved"
    (List.init 23 (fun i -> string_of_int (i + 1)))
    (List.rev !(h.delivered.(1)))

let test_token_retransmit_survives_single_loss () =
  (* 1 in 50 packets lost: single token losses are healed by the token
     retransmission timer without a membership change *)
  let h = make ~seed:3L ~loss:0.02 4 in
  let views_before =
    (Totem.Node.stats h.nodes.(0)).Totem.Node.views_installed
  in
  for k = 1 to 30 do
    Totem.Node.multicast h.nodes.(k mod 4) (string_of_int k)
  done;
  run_for h 200;
  check int "all delivered" 30 (List.length !(h.delivered.(0)));
  let views_after =
    (Totem.Node.stats h.nodes.(0)).Totem.Node.views_installed
  in
  check bool "few membership changes despite loss" true
    (views_after - views_before <= 2)

let test_large_ring () =
  let h = make 8 in
  for i = 0 to 7 do
    Totem.Node.multicast h.nodes.(i) (Printf.sprintf "from%d" i)
  done;
  run_for h 100;
  let d0 = List.rev !(h.delivered.(0)) in
  check int "eight messages" 8 (List.length d0);
  for i = 1 to 7 do
    check
      (Alcotest.list Alcotest.string)
      "same order on the big ring" d0
      (List.rev !(h.delivered.(i)))
  done

let test_store_gc_happens_on_ring () =
  (* after sustained traffic and token rotations, early messages are
     garbage-collected from the stores (we can only observe indirectly:
     memory-safe long runs and correct delivery) *)
  let h = make 3 in
  for batch = 0 to 19 do
    for k = 0 to 9 do
      Totem.Node.multicast h.nodes.(k mod 3)
        (Printf.sprintf "b%d.%d" batch k)
    done;
    run_for h 5
  done;
  run_for h 50;
  check int "200 delivered" 200 (List.length !(h.delivered.(2)))

let delivery_time_of_first_message config =
  let eng = Dsim.Engine.create ~seed:21L () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss = 0.;
      }
  in
  let when_delivered = ref None in
  let nodes =
    Array.init 4 (fun i ->
        Totem.Node.create eng net ~me:(n i) ~config
          ~handler:(fun ev ->
            match ev with
            | Totem.Node.Deliver { payload; _ } ->
                if i = 2 && payload = "probe" && !when_delivered = None then
                  when_delivered := Some (Dsim.Engine.now eng)
            | Totem.Node.View _ | Totem.Node.Blocked -> ())
          ())
  in
  Array.iter Totem.Node.start nodes;
  Dsim.Engine.run ~until:(Time.of_ms 50) eng;
  Totem.Node.multicast nodes.(0) "probe";
  Dsim.Engine.run ~until:(Time.of_ms 80) eng;
  Option.get !when_delivered

let test_safe_delivery_orders_and_lags () =
  let agreed =
    delivery_time_of_first_message
      { Totem.Config.default with delivery = Totem.Config.Agreed }
  in
  let safe =
    delivery_time_of_first_message
      { Totem.Config.default with delivery = Totem.Config.Safe }
  in
  (* safe delivery withholds the message until the token proves stability:
     at least one extra rotation (~200 us on this ring) *)
  check bool "safe delivery is later" true
    Span.(Time.diff safe agreed > Span.of_us 150)

let test_safe_delivery_total_order () =
  let config = { Totem.Config.default with delivery = Totem.Config.Safe } in
  let h = make ~config 4 in
  for k = 1 to 20 do
    Totem.Node.multicast h.nodes.(k mod 4) (string_of_int k)
  done;
  run_for h 200;
  let d0 = List.rev !(h.delivered.(0)) in
  check int "all delivered under safe mode" 20 (List.length d0);
  for i = 1 to 3 do
    check
      (Alcotest.list Alcotest.string)
      "same order" d0
      (List.rev !(h.delivered.(i)))
  done

let test_wire_pp_smoke () =
  let show m = Format.asprintf "%a" Totem.Wire.pp m in
  let r : string Totem.Wire.t = Totem.Wire.Regular (msg 7) in
  check bool "regular" true
    (String.length (show r) > 0
    && String.length (show r) < 200);
  let tok : string Totem.Wire.t =
    Totem.Wire.Token
      {
        ring;
        token_seq = 3;
        seq = 9;
        aru = 7;
        aru_id = Some (n 1);
        rtr = [ 8 ];
        fcc = 2;
      }
  in
  check bool "token mentions seq" true
    (let s = show tok in
     String.length s > 0)

let test_ring_id_ordering () =
  let a = Totem.Ring_id.make ~rep:(n 0) ~gen:1 in
  let b = Totem.Ring_id.make ~rep:(n 1) ~gen:1 in
  let c = Totem.Ring_id.make ~rep:(n 0) ~gen:2 in
  check bool "gen dominates" true (Totem.Ring_id.compare a c < 0);
  check bool "rep breaks ties" true (Totem.Ring_id.compare a b < 0);
  check bool "equal" true (Totem.Ring_id.equal a a);
  check bool "distinct" false (Totem.Ring_id.equal a b)

let prop_large_ring_total_order =
  QCheck.Test.make ~count:10 ~name:"total order holds for rings of 2..8"
    QCheck.(pair (int_range 2 8) (int_range 1 500))
    (fun (nodes, seed) ->
      let h = make ~seed:(Int64.of_int seed) nodes in
      for k = 1 to 12 do
        Totem.Node.multicast h.nodes.(k mod nodes) (string_of_int k)
      done;
      run_for h 200;
      let d0 = !(h.delivered.(0)) in
      List.length d0 = 12
      && Array.for_all (fun d -> !d = d0) h.delivered)

(* ------------------------------------------------------------------ *)
(* Gather *)

module Set = Nid.Set

module Bits = struct
  include Totem.Bits

  let of_set s = of_list (Set.elements s)
  let to_set b = Set.of_list (elements b)
end

(* Reference: the same set rules, with the agreement test as first
   written — every live candidate's latest join compared with the local
   sets structurally. *)
type reference = {
  me : Nid.t;
  mutable proc : Set.t;
  mutable fail : Set.t;
  joins : (Nid.t, Totem.Wire.join) Hashtbl.t;
}

let ref_absorb r (j : Totem.Wire.join) =
  if Set.mem j.j_sender r.fail then false
  else begin
    Hashtbl.replace r.joins j.j_sender j;
    let proc = Set.union r.proc (Bits.to_set j.proc_set) in
    let fail =
      if Set.mem r.me (Bits.to_set j.fail_set) then Set.add j.j_sender r.fail
      else Set.union r.fail (Bits.to_set j.fail_set)
    in
    let grew = not (Set.equal proc r.proc && Set.equal fail r.fail) in
    r.proc <- proc;
    r.fail <- fail;
    grew
  end

let ref_agreed r =
  let live = Set.diff r.proc r.fail in
  Set.mem r.me live
  && Set.for_all
       (fun p ->
         match Hashtbl.find_opt r.joins p with
         | Some (j : Totem.Wire.join) ->
             Set.equal (Bits.to_set j.proc_set) r.proc
             && Set.equal (Bits.to_set j.fail_set) r.fail
         | None -> false)
       live

let join_of ~sender ~proc ~fail : Totem.Wire.join =
  {
    j_sender = sender;
    proc_set = Bits.of_set proc;
    fail_set = Bits.of_set fail;
    j_old = { old_ring = None; high_seq = 0; old_aru = 0 };
    max_gen = 0;
  }

(* Node [i] of a property's k nodes has id [ids.(i)]. *)
let set_of_mask ids k mask =
  Set.of_list
    (List.filter_map
       (fun i -> if mask land (1 lsl i) <> 0 then Some (n ids.(i)) else None)
       (List.init k Fun.id))

(* The receiver receives a random sequence of steps over nodes 0..k-1:
   0 a join with random sets; 1 a join echoing the local sets; 2 that
   echo failing the receiver; 3 the receiver's own join; 4 a consensus
   timeout failing random nodes.  After every step the cached agreement
   count must give the reference's verdict, over the same sets. *)
let gather_matches_reference ids (k, (proc0, fail0), steps) =
  let set_of_mask = set_of_mask ids in
  let me = n ids.(0) in
  let proc = set_of_mask k proc0 and fail = set_of_mask k fail0 in
  let g =
    Totem.Gather.create ~me ~proc:(Bits.of_set proc) ~fail:(Bits.of_set fail)
  in
  let r =
    {
      me;
      proc = Set.add me proc;
      fail = Set.remove me fail;
      joins = Hashtbl.create 8;
    }
  in
  let same () =
    Set.equal (Bits.to_set (Totem.Gather.proc_set g)) r.proc
    && Set.equal (Bits.to_set (Totem.Gather.fail_set g)) r.fail
    && Set.equal (Bits.to_set (Totem.Gather.live g)) (Set.diff r.proc r.fail)
    && Totem.Gather.agreed g = ref_agreed r
  in
  let absorb j = Totem.Gather.absorb g j = ref_absorb r j in
  same ()
  && List.for_all
       (fun (kind, s, pmask, fmask) ->
         let sender = n ids.(1 + (s mod (k - 1))) in
         let ok =
           match kind with
           | 0 ->
               absorb
                 (join_of ~sender
                    ~proc:(Set.add sender (set_of_mask k pmask))
                    ~fail:(set_of_mask k fmask))
           | 1 -> absorb (join_of ~sender ~proc:r.proc ~fail:r.fail)
           | 2 ->
               absorb (join_of ~sender ~proc:r.proc ~fail:(Set.add me r.fail))
           | 3 -> absorb (join_of ~sender:me ~proc:r.proc ~fail:r.fail)
           | _ ->
               let f = set_of_mask k fmask in
               Totem.Gather.fail g (Bits.of_set f);
               r.fail <- Set.union r.fail (Set.remove me f);
               true
         in
         ok && same ())
       steps

let gather_case_gen =
  QCheck.(
    triple (int_range 2 8)
      (pair (int_bound 255) (int_bound 255))
      (list_of_size (Gen.int_range 1 40)
         (quad (int_bound 4) (int_bound 7) (int_bound 255) (int_bound 255))))

let prop_gather_agreement_matches_reference =
  QCheck.Test.make ~count:500
    ~name:"gather: cached-cardinality agreement equals Set.equal"
    gather_case_gen
    (gather_matches_reference (Array.init 8 Fun.id))

(* The same steps over ids spread across word boundaries of the bitsets:
   the receiver sits in word 1 and the senders reach word 16. *)
let prop_gather_agreement_across_words =
  QCheck.Test.make ~count:500
    ~name:"gather: agreement equals Set.equal, ids across bitset words"
    gather_case_gen
    (gather_matches_reference [| 62; 0; 61; 63; 123; 124; 186; 1023 |])

(* ------------------------------------------------------------------ *)
(* Bitsets *)

(* Ids 0..1100, biased towards word boundaries. *)
let bits_id_gen =
  QCheck.Gen.(
    oneof
      [
        oneofl [ 0; 1; 61; 62; 63; 123; 124; 125; 1023; 1100 ];
        int_bound 1100;
      ])

let bits_set_gen = QCheck.Gen.(list_size (int_bound 40) bits_id_gen)

let prop_bits_match_set =
  QCheck.Test.make ~count:1000 ~name:"bitset ops equal Node_id.Set ops"
    QCheck.(
      make
        ~print:(fun (a, b, x) ->
          let l = Print.(list int) in
          Printf.sprintf "(%s, %s, %d)" (l a) (l b) x)
        Gen.(triple bits_set_gen bits_set_gen bits_id_gen))
    (fun (a, b, x) ->
      let a = List.map n a and b = List.map n b in
      let sa = Set.of_list a and sb = Set.of_list b in
      let ba = Bits.of_list a and bb = Bits.of_list b in
      let x = n x in
      let same_set bits set =
        List.equal Nid.equal (Bits.elements bits) (Set.elements set)
        && Bits.cardinal bits = Set.cardinal set
      in
      same_set ba sa && same_set bb sb
      && Bits.subset ba bb = Set.subset sa sb
      && Bits.subset bb ba = Set.subset sb sa
      && Bits.subset ba (Bits.union ba bb)
      && same_set (Bits.union ba bb) (Set.union sa sb)
      && same_set (Bits.diff ba bb) (Set.diff sa sb)
      && Bits.diff_cardinal ba bb = Set.cardinal (Set.diff sa sb)
      && Bits.mem x ba = Set.mem x sa
      && same_set (Bits.add x ba) (Set.add x sa)
      && same_set (Bits.remove x ba) (Set.remove x sa)
      && (Set.is_empty sa || Nid.equal (Bits.min_elt ba) (Set.min_elt sa))
      && Bits.is_empty ba = Set.is_empty sa)

let test_bits_edges () =
  let bits l = Bits.of_list (List.map n l) in
  let ids l = List.map Nid.to_int (Bits.elements (bits l)) in
  check (Alcotest.list int) "empty" [] (ids []);
  check (Alcotest.list int) "word edges ascending"
    [ 0; 61; 62; 63; 123; 124; 1023 ]
    (ids [ 1023; 124; 123; 63; 62; 61; 0 ]);
  check int "cardinal of word-edge set" 7
    (Bits.cardinal (bits [ 0; 61; 62; 63; 123; 124; 1023 ]));
  check bool "empty subset of empty" true (Bits.subset Bits.empty Bits.empty);
  check bool "high id not a subset of a short set" false
    (Bits.subset (bits [ 1023 ]) (bits [ 0 ]));
  check bool "short set a subset of a long one" true
    (Bits.subset (bits [ 0 ]) (bits [ 0; 1023 ]));
  check int "two full words" 124 (Bits.cardinal (bits (List.init 124 Fun.id)))

(* A recovery goes operational exactly when every committed member's
   Recovery_done is in: the node's own, then one per other member.
   Dones from non-members and repeated dones count nothing. *)
let test_recovery_done_count () =
  let eng = Dsim.Engine.create ~seed:1L () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss = 0.;
      }
  in
  let node =
    Totem.Node.create eng net ~me:(n 0) ~handler:(fun _ -> ()) ()
  in
  (* Nodes 1 and 2 are the other members and 3 is an outsider; none runs
     Totem, each message is injected by hand. *)
  List.iter
    (fun i -> Netsim.Network.attach net (n i) (fun ~src:_ _ -> ()))
    [ 1; 2; 3 ];
  Totem.Node.start node;
  let new_ring = Totem.Ring_id.make ~rep:(n 1) ~gen:5 in
  let fresh : Totem.Wire.old_ring_info =
    { old_ring = None; high_seq = 0; old_aru = 0 }
  in
  let inject src msg =
    Netsim.Network.send net ~src:(n src) ~dst:(n 0) msg;
    Dsim.Engine.run
      ~until:(Time.add (Dsim.Engine.now eng) (Span.of_us 100))
      eng
  in
  inject 1
    (Totem.Wire.Commit
       {
         new_ring;
         members = [ n 0; n 1; n 2 ];
         member_old = List.map (fun i -> (n i, fresh)) [ 0; 1; 2 ];
         recover = [];
       });
  let operational () = Totem.Node.is_operational node in
  check bool "recovering after the commit" false (operational ());
  let done_from i =
    inject i
      (Totem.Wire.Recovery_done { d_sender = n i; new_ring; nudge = false })
  in
  done_from 3;
  check bool "a non-member's done counts nothing" false (operational ());
  done_from 1;
  check bool "one of two other members" false (operational ());
  done_from 1;
  check bool "a repeated done counts nothing" false (operational ());
  done_from 2;
  check bool "every member's done is in" true (operational ());
  check bool "on the committed ring" true
    (match Totem.Node.ring node with
    | Some r -> Totem.Ring_id.equal r new_ring
    | None -> false)

(* A random minority of 3..8 nodes crashes at random instants of the
   first gather, on a clean or a lossy LAN: every survivor must reach
   Operational on one ring whose members are exactly the survivors, within
   a simulated bound.  Joins are rebroadcast only by the retransmit tick,
   so this is what shows that coalescing them never prevents consensus. *)
let prop_formation_survives_mid_gather_crashes =
  QCheck.Test.make ~count:60 ~name:"formation survives crashes mid-gather"
    QCheck.(
      quad (int_range 1 10_000) (int_range 3 8) bool
        (list_of_size (Gen.int_range 0 3)
           (pair (int_bound 7) (int_bound 2_000))))
    (fun (seed, count, lossy, crashes) ->
      let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
      let net =
        Netsim.Network.create eng
          {
            Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
            loss = (if lossy then 0.05 else 0.);
          }
      in
      let nodes =
        Array.init count (fun i ->
            Totem.Node.create eng net ~me:(n i) ~handler:ignore ())
      in
      Array.iter Totem.Node.start nodes;
      let doomed = Array.make count false in
      let n_doomed = ref 0 in
      List.iter
        (fun (v, at_us) ->
          let v = v mod count in
          if (not doomed.(v)) && !n_doomed < (count - 1) / 2 then begin
            doomed.(v) <- true;
            incr n_doomed;
            Dsim.Engine.schedule eng (Span.of_us at_us) (fun () ->
                Totem.Node.crash nodes.(v))
          end)
        crashes;
      let survivors =
        List.filter (fun i -> not doomed.(i)) (List.init count Fun.id)
      in
      let expect = List.map n survivors in
      let ring_of i = Totem.Node.ring nodes.(i) in
      let formed () =
        List.for_all
          (fun i ->
            Totem.Node.is_operational nodes.(i)
            && List.equal Nid.equal (Totem.Node.members nodes.(i)) expect
            && Option.equal Totem.Ring_id.equal (ring_of i)
                 (ring_of (List.hd survivors)))
          survivors
      in
      let bound = Time.of_ms 100 in
      let rec run () =
        formed ()
        || Time.(Dsim.Engine.now eng < bound)
           && Dsim.Engine.step eng && run ()
      in
      run ())

let suites =
  [
    ( "totem.store",
      [
        Alcotest.test_case "contiguous aru" `Quick test_store_contiguous_aru;
        Alcotest.test_case "duplicates" `Quick test_store_duplicate_detection;
        Alcotest.test_case "delivery cursor" `Quick test_store_delivery_cursor;
        Alcotest.test_case "missing/held" `Quick test_store_missing_and_held;
        Alcotest.test_case "gc" `Quick test_store_gc;
        QCheck_alcotest.to_alcotest prop_store_aru_is_contiguous_prefix;
      ] );
    ( "totem.protocol",
      [
        Alcotest.test_case "flow control" `Quick
          test_flow_control_caps_per_visit;
        Alcotest.test_case "token retransmission" `Quick
          test_token_retransmit_survives_single_loss;
        Alcotest.test_case "large ring" `Quick test_large_ring;
        Alcotest.test_case "gc on ring" `Quick test_store_gc_happens_on_ring;
        Alcotest.test_case "safe delivery lags" `Quick
          test_safe_delivery_orders_and_lags;
        Alcotest.test_case "safe delivery order" `Quick
          test_safe_delivery_total_order;
        Alcotest.test_case "wire pp" `Quick test_wire_pp_smoke;
        Alcotest.test_case "ring id order" `Quick test_ring_id_ordering;
        QCheck_alcotest.to_alcotest prop_large_ring_total_order;
      ] );
    ( "totem.gather",
      [
        QCheck_alcotest.to_alcotest prop_gather_agreement_matches_reference;
        QCheck_alcotest.to_alcotest prop_gather_agreement_across_words;
        QCheck_alcotest.to_alcotest prop_bits_match_set;
        Alcotest.test_case "bitset word edges" `Quick test_bits_edges;
        Alcotest.test_case "recovery ends on every member's done" `Quick
          test_recovery_done_count;
        QCheck_alcotest.to_alcotest prop_formation_survives_mid_gather_crashes;
      ] );
  ]
