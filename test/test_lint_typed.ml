(* Tests for the whole-program rules of ctslint (lib/lint: Cmt_loader +
   Typed_facts + Typed_check): per-rule compiled fixtures for
   hotpath-alloc and domain-unsafe, and for the runtime idents the
   wall-clock rule fences — each with a positive finding, a clean
   negative, and a suppressed variant; interprocedural certification
   across modules; attribute hygiene; the live-tree gate (every
   [@ctslint.hotpath] root certifies, zero findings, one typedtree per
   swept file); and the static-vs-dynamic cross-check: functions the
   certifier puts in the inventory are re-measured with
   [Gc.minor_words] and must allocate nothing at runtime. *)

open Lint_fixture

let bool = Alcotest.bool
let string = Alcotest.string

(* ------------------------------------------------------------------ *)
(* hotpath-alloc                                                       *)

let test_hotpath_positive () =
  let r =
    analyze_fixture [ ("f1.ml", "let hot x = (x, x) [@@ctslint.hotpath]\n") ]
  in
  check int "one finding" 1 (List.length (findings r));
  let f = List.hd (findings r) in
  check string "rule" "hotpath-alloc" f.Lint.Finding.rule;
  check string "exact file" "f1.ml" f.Lint.Finding.file;
  check int "exact line" 1 f.Lint.Finding.line;
  check bool "names the allocation" true
    (contains ~sub:"tuple allocation" f.Lint.Finding.message);
  match r.Lint.Typed_check.r_roots with
  | [ (root, certified) ] ->
      check string "root name" "F1.hot" root.Lint.Typed_facts.f_canon;
      check bool "root fails certification" false certified
  | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots)

let test_hotpath_negative () =
  let r =
    analyze_fixture
      [ ("f1.ml", "let hot a b = (a * 31) + b [@@ctslint.hotpath]\n") ]
  in
  check int "no findings" 0 (List.length (findings r));
  (match r.Lint.Typed_check.r_roots with
  | [ (_, certified) ] -> check bool "root certifies" true certified
  | _ -> Alcotest.fail "expected exactly one root");
  check bool "certified inventory lists the root" true
    (List.mem "F1.hot" r.Lint.Typed_check.r_certified)

let hotpath_suppressed_src =
  "let hot x =\n\
  \  ((x, x) [@ctslint.allow \"hotpath-alloc\" \"fixture: sanctioned box\"])\n\
   [@@ctslint.hotpath]\n"

let test_hotpath_suppressed () =
  let r = analyze_fixture [ ("f1.ml", hotpath_suppressed_src) ] in
  check int "allow silences the finding" 0 (List.length (findings r));
  (match r.Lint.Typed_check.r_roots with
  | [ (_, certified) ] ->
      check bool "suppressed alloc does not fail the root" true certified
  | _ -> Alcotest.fail "expected exactly one root");
  (match
     supp_with r (fun s -> String.equal s.Lint.Suppress.s_rule "hotpath-alloc")
   with
  | Some s -> check bool "consumed" true s.Lint.Suppress.s_used
  | None -> Alcotest.fail "suppression sighting missing");
  (* audit mode re-surfaces the exact site *)
  let audit =
    analyze_fixture ~respect:false [ ("f1.ml", hotpath_suppressed_src) ]
  in
  check int "audit mode re-surfaces it" 1 (count_rule "hotpath-alloc" audit);
  check int "at the allocation line" 2
    (List.hd (findings audit)).Lint.Finding.line

let test_hotpath_interprocedural () =
  (* the allocation is two calls away, across compilation units *)
  let r =
    analyze_fixture
      [
        ("leaf.ml", "let alloc_pair x = (x, x)\n");
        ("mid.ml", "let relay x = Leaf.alloc_pair x\n");
        ("hot.ml", "let entry x = Mid.relay x [@@ctslint.hotpath]\n");
      ]
  in
  (match r.Lint.Typed_check.r_roots with
  | [ (root, certified) ] ->
      check string "root" "Hot.entry" root.Lint.Typed_facts.f_canon;
      check bool "transitive alloc fails the root" false certified
  | _ -> Alcotest.fail "expected exactly one root");
  (* the chain is reported end to end: the alloc itself, and each call
     edge that transports it back to the root *)
  check
    (Alcotest.list string)
    "one finding per hop, exact files"
    [ "hot.ml"; "leaf.ml"; "mid.ml" ]
    (List.map (fun f -> f.Lint.Finding.file) (findings r));
  let at file =
    List.find (fun f -> String.equal f.Lint.Finding.file file) (findings r)
  in
  check bool "leaf names the tuple" true
    (contains ~sub:"tuple allocation" (at "leaf.ml").Lint.Finding.message);
  check bool "mid blames Leaf.alloc_pair" true
    (contains ~sub:"Leaf.alloc_pair" (at "mid.ml").Lint.Finding.message);
  check bool "root blames Mid.relay" true
    (contains ~sub:"Mid.relay" (at "hot.ml").Lint.Finding.message)

(* ------------------------------------------------------------------ *)
(* domain-unsafe                                                       *)

let test_domain_positive () =
  let r =
    analyze_fixture
      [ ("lib/mc/pool.ml", "let tally = ref 0\nlet worker () = !tally\n") ]
  in
  check int "one finding" 1 (count_rule "domain-unsafe" r);
  let f = List.hd (findings r) in
  check string "in the worker file" "lib/mc/pool.ml" f.Lint.Finding.file;
  check int "at the access" 2 f.Lint.Finding.line;
  check bool "names the global and its definition site" true
    (contains ~sub:"Pool.tally" f.Lint.Finding.message
    && contains ~sub:"lib/mc/pool.ml:1" f.Lint.Finding.message);
  check bool "suggests the remedies" true
    (contains ~sub:"DLS" f.Lint.Finding.message)

let test_domain_dls_negative () =
  let r =
    analyze_fixture
      [
        ( "lib/mc/pool.ml",
          "let slot = Domain.DLS.new_key (fun () -> 0)\n\
           let worker () = Domain.DLS.get slot\n" );
      ]
  in
  check int "DLS-mediated state is fine" 0 (List.length (findings r))

let test_domain_lock_negative () =
  let r =
    analyze_fixture
      [
        ( "lib/mc/pool.ml",
          "let lock = Mutex.create ()\n\
           let total = ref 0\n\
           let worker () = Mutex.protect lock (fun () -> total := !total + 1)\n"
        );
      ]
  in
  check int "lock-protected access is fine" 0 (count_rule "domain-unsafe" r)

let test_domain_owned_rejected () =
  (* no declaration exempts shared state: [domain_owned] is an unknown
     annotation, so it is a bad-suppression and silences nothing *)
  let src =
    "let registry = ref 0\n\
     [@@ctslint.domain_owned \"fixture: populated before workers start\"]\n\
     let worker () = !registry\n"
  in
  check (Alcotest.list string) "domain_owned is an unknown annotation"
    [ "bad-suppression"; "domain-unsafe" ]
    (rules_of (analyze_fixture [ ("lib/mc/pool.ml", src) ]))

(* ------------------------------------------------------------------ *)
(* runtime-boundary: host runtime calls are wall-clock findings         *)

let test_runtime_positive () =
  let r =
    analyze_fixture [ ("lib/foo.ml", "let elapsed () = Sys.time ()\n") ]
  in
  check int "one finding" 1 (count_rule "wall-clock" r);
  let f = List.hd (findings r) in
  check string "exact file" "lib/foo.ml" f.Lint.Finding.file;
  check int "exact line" 1 f.Lint.Finding.line;
  check bool "names the ident" true
    (contains ~sub:"Sys.time" f.Lint.Finding.message);
  (* whole runtime modules, and console input, are fenced too *)
  check int "Unix, Thread and console input" 3
    (count_rule "wall-clock"
       (analyze_fixture
          [
            ( "lib/foo.ml",
              "let pid () = Unix.getpid ()\n\
               let me () = Thread.self ()\n\
               let line () = read_line ()\n" );
          ]))

let runtime_suppressed_src =
  "let elapsed () =\n\
  \  Sys.time ()\n\
   [@@ctslint.allow \"wall-clock\" \"fixture: declared boundary\"]\n"

let test_runtime_suppressed () =
  let r = analyze_fixture [ ("lib/foo.ml", runtime_suppressed_src) ] in
  check int "allow silences the finding" 0 (List.length (findings r));
  (match
     supp_with r (fun s -> String.equal s.Lint.Suppress.s_rule "wall-clock")
   with
  | Some s -> check bool "consumed" true s.Lint.Suppress.s_used
  | None -> Alcotest.fail "suppression sighting missing");
  let audit =
    analyze_fixture ~respect:false [ ("lib/foo.ml", runtime_suppressed_src) ]
  in
  check int "audit mode re-surfaces it" 1 (count_rule "wall-clock" audit)

(* ------------------------------------------------------------------ *)
(* Suppression hygiene                                                 *)

let test_unused_typed_allow () =
  let r =
    analyze_fixture
      [
        ( "f1.ml",
          "let clean x = x + 1\n\
           [@@ctslint.allow \"hotpath-alloc\" \"fixture: silences nothing\"]\n"
        );
      ]
  in
  check (Alcotest.list string) "unused typed allow is itself a finding"
    [ "unused-allow" ] (rules_of r);
  check bool "names the rule" true
    (contains ~sub:"hotpath-alloc" (List.hd (findings r)).Lint.Finding.message)

let test_syntactic_hygiene_of_typed_attrs () =
  (* attribute well-formedness, for every ctslint annotation *)
  let rules src = rules_of (analyze_fixture [ ("lib/mc/pool.ml", src) ]) in
  check (Alcotest.list string) "hotpath takes no payload"
    [ "bad-suppression" ]
    (rules "let f x = x [@@ctslint.hotpath \"why\"]\n");
  check (Alcotest.list string) "unknown ctslint attribute"
    [ "bad-suppression" ]
    (rules "let g = 1 [@@ctslint.frobnicate \"a\" \"b\"]\n");
  check (Alcotest.list string) "well-formed hotpath is clean" []
    (rules "let f x = x [@@ctslint.hotpath]\n")

(* ------------------------------------------------------------------ *)
(* Live-tree gates                                                     *)

let test_live_typed_gate () =
  match Lazy.force live with
  | None -> () (* not running from a checkout; @lint covers it *)
  | Some r ->
      check
        (Alcotest.list string)
        "zero typed findings on the live tree" []
        (List.map Lint.Finding.to_string (findings r));
      check bool "the tree was actually analyzed" true
        (r.Lint.Typed_check.r_units >= 60);
      check bool "function population floor" true
        (r.Lint.Typed_check.r_fns >= 900);
      check bool "hot-path roots present" true
        (List.length r.Lint.Typed_check.r_roots >= 13);
      List.iter
        (fun ((f : Lint.Typed_facts.fn_fact), certified) ->
          check bool ("root certifies: " ^ f.Lint.Typed_facts.f_canon) true
            certified)
        r.Lint.Typed_check.r_roots

let test_live_suppression_attribution () =
  match Lazy.force live with
  | None -> ()
  | Some r -> (
      match
        supp_with r (fun s ->
            contains ~sub:"event_queue" s.Lint.Suppress.s_file
            && String.equal s.Lint.Suppress.s_rule "hotpath-alloc")
      with
      | Some s ->
          check bool "the queue's hotpath allow is consumed" true
            s.Lint.Suppress.s_used
      | None -> Alcotest.fail "event_queue hotpath-alloc allow not sighted")

let test_alias_coverage () =
  (* every top-level directory holding .ml files must be in the set the
     lint alias (and these tests) sweep — a new directory cannot
     silently escape the gate *)
  match repo_root () with
  | None -> ()
  | Some root ->
      let rec has_ml dir =
        Array.exists
          (fun name ->
            let p = Filename.concat dir name in
            if Sys.is_directory p then has_ml p
            else Filename.check_suffix name ".ml")
          (Sys.readdir dir)
      in
      Array.iter
        (fun entry ->
          let p = Filename.concat root entry in
          if
            Sys.is_directory p
            && String.length entry > 0
            && entry.[0] <> '.'
            && entry.[0] <> '_' (* _build, _opam *)
            && has_ml p
          then
            check bool ("directory is lint-covered: " ^ entry) true
              (List.mem entry tree_dirs))
        (Sys.readdir root);
      (* and the one dune rule passes exactly that set, over a build
         that has every typedtree *)
      let ic = open_in (Filename.concat root "dune") in
      let n = in_channel_length ic in
      let dune = really_input_string ic n in
      close_in ic;
      let args = String.concat " " tree_dirs in
      check bool "@lint sweeps the full set" true
        (contains ~sub:("ctslint.exe} " ^ args) dune);
      check bool "@lint builds every typedtree first" true
        (contains ~sub:"(alias_rec check)" dune)

let test_units_cover_swept_files () =
  match Lazy.force live with
  | None -> ()
  | Some r ->
      check
        (Alcotest.list string)
        "no swept file lacks a typedtree" []
        (List.filter_map
           (fun (f : Lint.Finding.t) ->
             if String.equal f.Lint.Finding.rule "missing-cmt" then
               Some f.Lint.Finding.file
             else None)
           (findings r));
      check int "units = swept .ml count" r.Lint.Typed_check.r_files
        r.Lint.Typed_check.r_units;
      check bool "the whole tree was swept" true
        (r.Lint.Typed_check.r_files >= 100)

(* ------------------------------------------------------------------ *)
(* Static-vs-dynamic cross-check                                       *)

(* The certifier's inventory is a *claim* about runtime behavior; these
   twins hold it to account.  Each picks functions the static pass
   certified on the live tree and drives them through a steady-state
   loop under [Gc.minor_words]: the delta must be exactly zero. *)

let assert_certified names =
  match Lazy.force live with
  | None -> ()
  | Some r ->
      List.iter
        (fun n ->
          check bool ("statically certified: " ^ n) true
            (List.mem n r.Lint.Typed_check.r_certified))
        names

let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_cross_check_engine_queue () =
  assert_certified
    [
      "Dsim.Engine.fire_head";
      "Dsim.Event_queue.push";
      "Dsim.Event_queue.fire_min_exn";
      "Dsim.Event_queue.sift_up";
      "Dsim.Event_queue.sift_down";
      "Dsim.Event_queue.drop_min";
      "Dsim.Event_queue.min_time_exn";
    ];
  (* Once with the record stream off (nothing attached, the default) and
     once on, with a recorder and [steps] set: one record per fired event,
     the worst case bench/main.exe's `obs` gate times. *)
  let recorder = Obs.Recorder.create ~capacity:1024 () in
  let sink = Obs.Sink.create () in
  Obs.Sink.set_recorder sink (Some recorder);
  Obs.Sink.set_steps sink true;
  List.iter
    (fun (stream, sink) ->
      let eng = Dsim.Engine.create () in
      Option.iter (Dsim.Engine.set_obs eng) sink;
      let fill n =
        for i = 1 to n do
          Dsim.Engine.schedule eng (Dsim.Time.Span.of_us (i mod 997)) ignore
        done;
        Dsim.Engine.run eng
      in
      (* warm: engine construction, the queue's one-time growth to the
         largest batch and the ring's first wrap happen outside the meter.
         The certificate covers the per-event path (schedule/push/fire),
         not the [run] entry itself, so the meter holds the number of
         [run] calls fixed and varies the event count: any per-event
         allocation shows up as the deltas diverging, while a constant
         per-call cost cancels. *)
      fill 8192;
      fill 8192;
      let d_small = minor_delta (fun () -> fill 1024) in
      let d_large = minor_delta (fun () -> fill 8192) in
      check (Alcotest.float 0.0)
        ("per-event allocation is zero, stream " ^ stream)
        d_small d_large;
      check bool ("per-run overhead is bounded, stream " ^ stream) true
        (d_small < 64.0))
    [ ("off", None); ("on", Some sink) ];
  check int "stream on: one record per fired event" (8192 + 8192 + 1024 + 8192)
    (Obs.Recorder.total recorder)

let test_cross_check_rng () =
  assert_certified [ "Dsim.Rng.bits" ];
  let t = Dsim.Rng.create 0x2545F4914F6CDD1DL in
  let acc = ref 0 in
  for _ = 1 to 1_000 do
    acc := !acc lxor Dsim.Rng.bits t
  done;
  let dw =
    minor_delta (fun () ->
        for _ = 1 to 100_000 do
          acc := !acc lxor Dsim.Rng.bits t
        done)
  in
  ignore (Sys.opaque_identity !acc);
  check (Alcotest.float 0.0) "rng draws allocate nothing" 0.0 dw

let test_cross_check_recorder () =
  assert_certified [ "Obs.Recorder.emit" ];
  let r = Obs.Recorder.create ~capacity:1024 () in
  (* warm past the wrap so the measured region is pure ring overwrite *)
  for i = 1 to 2048 do
    Obs.Recorder.emit r ~kind:Obs.Recorder.k_step ~ts_us:i ~node:0 ~a:i ~b:0
  done;
  let dw =
    minor_delta (fun () ->
        for i = 1 to 100_000 do
          Obs.Recorder.emit r ~kind:Obs.Recorder.k_step ~ts_us:i ~node:1 ~a:i
            ~b:i
        done)
  in
  check (Alcotest.float 0.0) "flight recorder emits allocate nothing" 0.0 dw

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "lint-typed",
      [
        Alcotest.test_case "hotpath-alloc: positive" `Quick
          test_hotpath_positive;
        Alcotest.test_case "hotpath-alloc: negative" `Quick
          test_hotpath_negative;
        Alcotest.test_case "hotpath-alloc: suppressed" `Quick
          test_hotpath_suppressed;
        Alcotest.test_case "hotpath-alloc: interprocedural 2-hop" `Quick
          test_hotpath_interprocedural;
        Alcotest.test_case "domain-unsafe: positive" `Quick
          test_domain_positive;
        Alcotest.test_case "domain-unsafe: DLS negative" `Quick
          test_domain_dls_negative;
        Alcotest.test_case "domain-unsafe: lock negative" `Quick
          test_domain_lock_negative;
        Alcotest.test_case "domain-unsafe: domain_owned" `Quick
          test_domain_owned_rejected;
        Alcotest.test_case "runtime-boundary: positive" `Quick
          test_runtime_positive;
        Alcotest.test_case "runtime-boundary: suppressed" `Quick
          test_runtime_suppressed;
        Alcotest.test_case "unused typed allow" `Quick test_unused_typed_allow;
        Alcotest.test_case "syntactic hygiene of typed attributes" `Quick
          test_syntactic_hygiene_of_typed_attrs;
        Alcotest.test_case "live tree: typed gate" `Quick test_live_typed_gate;
        Alcotest.test_case "live tree: suppression attribution" `Quick
          test_live_suppression_attribution;
        Alcotest.test_case "lint alias coverage" `Quick test_alias_coverage;
        Alcotest.test_case "units = swept .ml files" `Quick
          test_units_cover_swept_files;
        Alcotest.test_case "cross-check: engine + queue" `Quick
          test_cross_check_engine_queue;
        Alcotest.test_case "cross-check: rng" `Quick test_cross_check_rng;
        Alcotest.test_case "cross-check: recorder" `Quick
          test_cross_check_recorder;
      ] );
  ]
