(* Tests for ctslint's determinism rules (lib/lint): per-rule compiled
   fixtures — a positive finding, a clean negative, and a suppressed
   variant — with expect-style diagnostic rendering; suppression hygiene
   (missing reason, unknown rule, unused allow, file-level allows
   wherever they sit); the sort-context whitelist for pure-aggregation
   folds; module aliases; and two whole-tree gates: the live tree lints
   clean, and every live [@ctslint.allow] is load-bearing (audit mode
   re-surfaces what each one hides).

   Plus the regression the linter exists to prevent: handler fan-out
   order must be a function of state, not of Hashtbl bucket layout
   (Dsim.Det + the gcs endpoint fan-out). *)

open Lint_fixture

let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Fixture helpers                                                     *)

let lint ?(file = "lib/fixture/fix.ml") src = analyze_fixture [ (file, src) ]

let diags ?file src =
  List.map Lint.Finding.to_string (findings (lint ?file src))

let count_rule ?file rule src = Lint_fixture.count_rule rule (lint ?file src)
let rules_of ?file src = Lint_fixture.rules_of (lint ?file src)

(* ------------------------------------------------------------------ *)
(* Rule fixtures                                                       *)

let test_wall_clock () =
  check int "gettimeofday flagged" 1
    (count_rule "wall-clock" "let t = Unix.gettimeofday ()");
  check int "Sys.time flagged" 1 (count_rule "wall-clock" "let t = Sys.time ()");
  check int "Unix.sleep flagged" 1
    (count_rule "wall-clock" "let () = Unix.sleep 1");
  check int "monotonic clock flagged" 1
    (count_rule "wall-clock" "let t = Monotonic_clock.now ()");
  check int "project wrapper flagged" 1
    (count_rule "wall-clock" "let t = Mc.Explore.wall ()");
  (* a reference is as much a read as a call: the alias can be called
     anywhere *)
  check int "project wrapper taken as a value flagged" 1
    (count_rule "wall-clock" "let wall = Mc.Explore.wall");
  (* negative: simulated time is fine anywhere *)
  check int "Dsim.Time clean" 0
    (count_rule "wall-clock" "let t = Dsim.Time.of_us 5");
  (* suppressed *)
  let r =
    lint
      {|let t = (Unix.gettimeofday () [@ctslint.allow "wall-clock" "boot banner only"])|}
  in
  check int "suppressed" 0 (Lint_fixture.count_rule "wall-clock" r);
  check int "suppression recorded" 1 (List.length r.Lint.Typed_check.r_supps)

let test_hash_order () =
  (* positive: iter whose callback order escapes (the endpoint bug shape:
     reintroducing a Hashtbl.iter handler fan-out must fail the lint) *)
  let fan_out =
    "type sub = { handler : [ `Evicted ] -> unit }\n\
     type t = { subs : (int, sub) Hashtbl.t }\n\
     let evict t = Hashtbl.iter (fun _ s -> s.handler `Evicted) t.subs"
  in
  check int "iter fan-out flagged" 1 (count_rule "hash-order" fan_out);
  check int "fold to list flagged" 1
    (count_rule "hash-order" "let ks h = Hashtbl.fold (fun k _ a -> k :: a) h []");
  (* negative: pure aggregation — hash order erased by an immediate sort *)
  check int "fold under sort clean" 0
    (count_rule "hash-order"
       "let ks h = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) h [])");
  check int "fold piped to sort clean" 0
    (count_rule "hash-order"
       "let ks h = Hashtbl.fold (fun k _ a -> k :: a) h [] |> List.sort compare");
  (* the sanctioned replacement is itself clean *)
  check int "Det.iter_sorted clean" 0
    (count_rule "hash-order"
       "let f t = Dsim.Det.iter_sorted ~compare:Int.compare (fun _ s -> s ()) t");
  (* suppressed, file-level *)
  let src =
    {|[@@@ctslint.allow "hash-order" "stats table: callback only sums ints"]
let total h = Hashtbl.fold (fun _ v a -> v + a) h 0|}
  in
  check int "file-level suppressed" 0 (count_rule "hash-order" src);
  (* a file-level allow covers the whole file, not just what follows it *)
  let src =
    {|let total h = Hashtbl.fold (fun _ v a -> v + a) h 0
[@@@ctslint.allow "hash-order" "stats table: callback only sums ints"]|}
  in
  check (Alcotest.list Alcotest.string) "file-level allow below the site"
    [] (rules_of src)

let test_hash_order_alias () =
  (* paths are resolved: a module alias cannot hide the iteration *)
  let src = "module H = Hashtbl\nlet f h = H.iter (fun _ _ -> ()) h" in
  check int "H.iter through module H = Hashtbl" 1
    (count_rule "hash-order" src);
  check int "local alias too" 1
    (count_rule "hash-order"
       "let f h = let module T = Hashtbl in T.fold (fun k _ a -> k :: a) h []")

let test_unseeded_random () =
  check int "Random.int flagged" 1
    (count_rule "unseeded-random" "let x = Random.int 10");
  check int "Random.self_init flagged" 1
    (count_rule "unseeded-random" "let () = Random.self_init ()");
  check int "seeded Rng clean" 0
    (count_rule "unseeded-random" "let x r = Dsim.Rng.int_range r 0 10");
  check int "suppressed" 0
    (count_rule "unseeded-random"
       {|let x = (Random.int 10 [@ctslint.allow "unseeded-random" "jitter for a log banner"])|})

let test_phys_equality () =
  check int "== flagged" 1 (count_rule "phys-equality" "let f a b = a == b");
  check int "!= flagged" 1 (count_rule "phys-equality" "let f a b = a != b");
  check int "structural clean" 0
    (count_rule "phys-equality" "let f a b = a = b || a <> b");
  check int "suppressed" 0
    (count_rule "phys-equality"
       {|let f a b = (a == b) [@ctslint.allow "phys-equality" "sentinel"]|})

let test_exn_swallow () =
  check int "with _ flagged" 1
    (count_rule "exn-swallow" "let f g = try g () with _ -> 0");
  check int "specific exception clean" 0
    (count_rule "exn-swallow" "let f g = try g () with Not_found -> 0");
  check int "bound exception clean" 0
    (count_rule "exn-swallow"
       "let f g = try g () with e -> raise e");
  check int "suppressed" 0
    (count_rule "exn-swallow"
       {|let f g = (try g () with _ -> 0) [@ctslint.allow "exn-swallow" "fallback is result-identical"]|})

let test_domain_hygiene () =
  check int "Domain.spawn flagged" 1
    (count_rule "domain-hygiene" "let d f = Domain.spawn f");
  check int "Domain.self flagged" 1
    (count_rule "domain-hygiene" "let i = Domain.self ()");
  check int "pool.ml exempt" 0
    (count_rule ~file:"lib/mc/pool.ml" "domain-hygiene"
       "let d f = Domain.spawn f");
  (* Domain.DLS (fiber-local state) is not in the forbidden set *)
  check int "Domain.DLS clean" 0
    (count_rule "domain-hygiene" "let k f = Domain.DLS.new_key f");
  check int "suppressed" 0
    (count_rule "domain-hygiene"
       {|let d f = (Domain.spawn f) [@ctslint.allow "domain-hygiene" "one-shot watchdog"]|})

let test_suppression_hygiene () =
  (* a suppression without a reason is rejected AND does not suppress *)
  let r = rules_of {|let f a b = (a == b) [@ctslint.allow "phys-equality"]|} in
  check bool "missing reason reported" true
    (List.mem "bad-suppression" r);
  check bool "missing reason does not suppress" true
    (List.mem "phys-equality" r);
  (* unknown rule *)
  let r = rules_of {|let f a b = (a == b) [@ctslint.allow "no-such-rule" "x"]|} in
  check bool "unknown rule reported" true (List.mem "bad-suppression" r);
  (* a suppression that silences nothing is flagged *)
  check int "unused allow flagged" 1
    (count_rule "unused-allow"
       {|let f a b = (a = b) [@ctslint.allow "phys-equality" "stale"]|});
  check int "unused file-level allow flagged" 1
    (count_rule "unused-allow"
       {|[@@@ctslint.allow "hash-order" "stale"]
let x = 1|});
  (* used suppressions are not unused *)
  check int "used allow not flagged" 0
    (count_rule "unused-allow"
       {|let f a b = (a == b) [@ctslint.allow "phys-equality" "sentinel"]|})

(* Expect-style: the exact rendered diagnostics, location included. *)
let test_diagnostic_rendering () =
  let expected =
    [
      "lib/fixture/fix.ml:2:14: [phys-equality] physical equality (==) \
       depends on value representation, not contents; use structural \
       (=/<>) or annotate the sanctioned sentinel identity check";
    ]
  in
  check (Alcotest.list Alcotest.string) "rendered diagnostic" expected
    (diags "let _ = ()\nlet f a b = a == b")

(* A file outside every dune stanza has no typedtree; it must not escape
   the lint silently. *)
let test_missing_cmt () =
  let r =
    analyze_fixture
      ~uncompiled:[ ("lib/orphan.ml", "let t = Unix.gettimeofday ()\n") ]
      [ ("lib/built.ml", "let x = 1\n") ]
  in
  check (Alcotest.list Alcotest.string) "one missing-cmt finding"
    [ "missing-cmt" ] (Lint_fixture.rules_of r);
  check bool "names the file" true
    (Filename.check_suffix (List.hd (findings r)).Lint.Finding.file
       "lib/orphan.ml");
  check int "swept both files" 2 r.Lint.Typed_check.r_files

(* ------------------------------------------------------------------ *)
(* Whole-tree gates                                                    *)

let test_live_tree_clean () =
  match Lazy.force live with
  | None -> () (* not running from a checkout; the @lint alias covers it *)
  | Some r ->
      check
        (Alcotest.list Alcotest.string)
        "zero findings on the live tree" []
        (List.map Lint.Finding.to_string (findings r));
      check bool "tree was actually linted" true
        (r.Lint.Typed_check.r_files > 50);
      (* every suppression in the tree carries a reason by construction;
         make sure there are some (the sanctioned sentinels) *)
      check bool "suppressions present" true
        (List.length r.Lint.Typed_check.r_supps >= 15)

let test_live_annotations_load_bearing () =
  (* Audit mode reports findings even where suppressed, and follows the
     certified-region boundaries.  Every live [@ctslint.allow] must be
     load-bearing: for each (file, rule), audit mode must expose at least
     as many findings as there are allows (unused allows are impossible
     in a clean tree — they are themselves findings). *)
  match (Lazy.force live, Lazy.force live_audit) with
  | Some normal, Some audit ->
      check int "clean under suppressions" 0 (List.length (findings normal));
      let allows = normal.Lint.Typed_check.r_supps in
      check bool "allows present" true (List.length allows >= 15);
      let count pred l = List.length (List.filter pred l) in
      List.iter
        (fun (s : Lint.Suppress.t) ->
          let same_site file rule =
            String.equal file s.Lint.Suppress.s_file
            && String.equal rule s.Lint.Suppress.s_rule
          in
          check bool
            (Printf.sprintf "allow is load-bearing: %s:%d %s"
               s.Lint.Suppress.s_file s.Lint.Suppress.s_line
               s.Lint.Suppress.s_rule)
            true
            (count
               (fun (f : Lint.Finding.t) ->
                 same_site f.Lint.Finding.file f.Lint.Finding.rule)
               (findings audit)
            >= count
                 (fun (s' : Lint.Suppress.t) ->
                   same_site s'.Lint.Suppress.s_file s'.Lint.Suppress.s_rule)
                 allows))
        allows;
      (* spot-check an annotated file: the snapshot's identity table is
         clean normally, dirty with its annotations ignored *)
      let in_snap (f : Lint.Finding.t) =
        String.equal f.Lint.Finding.file "lib/mc/snap.ml"
      in
      check int "snap clean with annotations" 0
        (count in_snap (findings normal));
      check bool "snap dirty without annotations" true
        (count in_snap (findings audit) > 0)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The bug class itself: iteration order independent of bucket layout   *)

let test_det_sorted_iteration () =
  (* Same bindings, different insertion orders and growth histories
     (including churn through a randomized table): identical traversal. *)
  let keys = [ 3; 1; 4; 1; 5; 9; 2; 6; 535; 89; 79; 32; 384; 626 ] in
  let build order =
    let h = Hashtbl.create ~random:true 2 in
    List.iter (fun k -> Hashtbl.replace h k (k * 10)) order;
    (* churn: force growth and tombstones *)
    List.iter (fun k -> Hashtbl.replace h (k + 1000) 0) order;
    List.iter (fun k -> Hashtbl.remove h (k + 1000)) order;
    h
  in
  let a = build keys in
  let b = build (List.rev keys) in
  let trace h =
    let acc = ref [] in
    Dsim.Det.iter_sorted ~compare:Int.compare
      (fun k v -> acc := (k, v) :: !acc)
      h;
    List.rev !acc
  in
  check bool "same traversal regardless of insertion order" true
    (trace a = trace b);
  check bool "traversal is key-sorted" true
    (let ks = List.map fst (trace a) in
     ks = List.sort_uniq Int.compare keys);
  check bool "fold_sorted agrees" true
    (Dsim.Det.fold_sorted ~compare:Int.compare
       (fun k _ acc -> k :: acc)
       a []
    = List.rev (List.map fst (trace a)));
  check bool "sorted_keys agrees" true
    (Dsim.Det.sorted_keys ~compare:Int.compare a
    = List.map fst (trace a))

(* Handler fan-out at the gcs endpoint: the View_change fan-out after a
   ring event must arrive in group-id order no matter the subscription
   order (which perturbs the subs table's bucket layout). *)
module Nid = Netsim.Node_id
module Gid = Gcs.Group_id
module Endpoint = Gcs.Endpoint
module Span = Dsim.Time.Span

let fanout_order sub_order =
  let eng = Dsim.Engine.create ~seed:7L () in
  let net =
    Netsim.Network.create eng
      {
        Netsim.Network.latency = Netsim.Latency.Constant (Span.of_us 26);
        loss = 0.;
      }
  in
  let eps =
    Array.init 3 (fun i ->
        Endpoint.create eng net ~me:(Nid.of_int i) ~bootstrap:true ())
  in
  Array.iter Endpoint.start eps;
  let seen = ref [] in
  List.iter
    (fun gi ->
      Endpoint.join_group eps.(0) (Gid.of_int gi) ~handler:(fun ev ->
          match ev with
          | Endpoint.View_change v -> seen := Gid.to_int v.Gcs.View.group :: !seen
          | _ -> ()))
    sub_order;
  let run_ms ms =
    Dsim.Engine.run
      ~until:(Dsim.Time.add (Dsim.Engine.now eng) (Span.of_ms ms))
      eng
  in
  run_ms 2_000;
  (* joins settled; isolate the ring-change fan-out *)
  seen := [];
  Endpoint.crash eps.(2);
  run_ms 5_000;
  List.rev !seen

let test_gcs_fanout_order () =
  let groups = [ 11; 3; 7; 5; 2 ] in
  let a = fanout_order groups in
  let b = fanout_order (List.rev groups) in
  let c = fanout_order (List.sort Int.compare groups) in
  check bool "fan-out happened" true (a <> []);
  check bool "order independent of subscription order (rev)" true (a = b);
  check bool "order independent of subscription order (sorted)" true (a = c);
  (* and the order is the deterministic one: ascending group id *)
  let is_sorted l = l = List.sort Int.compare l in
  check bool "each fan-out wave is group-id ascending" true
    (is_sorted (List.filteri (fun i _ -> i < List.length groups) a))

let suites =
  [
    ( "lint",
      [
        Alcotest.test_case "rule: wall-clock" `Quick test_wall_clock;
        Alcotest.test_case "rule: hash-order" `Quick test_hash_order;
        Alcotest.test_case "hash-order through a module alias" `Quick
          test_hash_order_alias;
        Alcotest.test_case "rule: unseeded-random" `Quick
          test_unseeded_random;
        Alcotest.test_case "rule: phys-equality" `Quick test_phys_equality;
        Alcotest.test_case "rule: exn-swallow" `Quick test_exn_swallow;
        Alcotest.test_case "rule: domain-hygiene" `Quick test_domain_hygiene;
        Alcotest.test_case "suppression hygiene" `Quick
          test_suppression_hygiene;
        Alcotest.test_case "diagnostic rendering" `Quick
          test_diagnostic_rendering;
        Alcotest.test_case "missing-cmt for an unbuilt file" `Quick
          test_missing_cmt;
        Alcotest.test_case "live tree lints clean" `Quick
          test_live_tree_clean;
        Alcotest.test_case "live annotations are load-bearing" `Quick
          test_live_annotations_load_bearing;
        Alcotest.test_case "Det iteration is order-independent" `Quick
          test_det_sorted_iteration;
        Alcotest.test_case "gcs fan-out order is deterministic" `Quick
          test_gcs_fanout_order;
      ] );
  ]
