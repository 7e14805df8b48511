(* Tests for the §4.1 library-interposition layer: fiber-local contexts,
   transparency, nesting, and isolation between co-hosted replicas. *)

module Time = Dsim.Time
module Span = Dsim.Time.Span
module Nid = Netsim.Node_id
module Gid = Gcs.Group_id
module Cluster = Scenario.Cluster
module Replica = Repl.Replica

let check = Alcotest.check
let bool = Alcotest.bool
let str = Alcotest.string

let test_no_context_outside_fiber () =
  Alcotest.check_raises "outside any fiber" Cts.Interpose.No_context
    (fun () -> ignore (Cts.Interpose.gettimeofday () : Time.t))

let test_no_context_in_plain_fiber () =
  let eng = Dsim.Engine.create () in
  let raised = ref false in
  Dsim.Fiber.spawn eng (fun () ->
      (try ignore (Cts.Interpose.gettimeofday () : Time.t)
       with Cts.Interpose.No_context -> raised := true));
  Dsim.Engine.run eng;
  check bool "raises without a binding" true !raised

(* An app written against the transparent API — no service handle at all. *)
let transparent_app _service =
  {
    Replica.handle =
      (fun ~thread:_ ~op ~arg ->
        match op with
        | "now" -> string_of_int (Time.to_ns (Cts.Interpose.gettimeofday ()))
        | "now_s" -> string_of_int (Time.to_ns (Cts.Interpose.time ()))
        | _ -> arg);
    snapshot = (fun () -> "");
    restore = ignore;
  }

let make_rig ?(seed = 1L) () =
  let clock_config i =
    { Clock.Hwclock.default_config with offset = Span.of_ms (7 * i) }
  in
  let cluster = Cluster.create ~seed ~clock_config ~nodes:4 () in
  Cluster.start_all cluster;
  Cluster.run_until cluster (fun () ->
      Cluster.ring_stable cluster ~on_nodes:[ 0; 1; 2; 3 ]);
  let config =
    {
      Replica.default_config with
      initial_members = List.map Nid.of_int [ 1; 2; 3 ];
    }
  in
  let replicas =
    List.map
      (fun node ->
        Replica.create cluster.Cluster.eng
          ~endpoint:cluster.Cluster.nodes.(node).Cluster.endpoint
          ~group:cluster.Cluster.server_group
          ~clock:cluster.Cluster.nodes.(node).Cluster.clock ~config
          ~app:transparent_app ())
      [ 1; 2; 3 ]
  in
  let client =
    Rpc.Client.create cluster.Cluster.eng
      ~endpoint:cluster.Cluster.nodes.(0).Cluster.endpoint
      ~my_group:cluster.Cluster.client_group
      ~server_group:cluster.Cluster.server_group ()
  in
  Cluster.run_until cluster (fun () ->
      List.length
        (Gcs.Endpoint.members_of cluster.Cluster.nodes.(0).Cluster.endpoint
           cluster.Cluster.server_group)
      = 3);
  (cluster, replicas, client)

let test_transparent_app_gets_group_clock () =
  let cluster, replicas, client = make_rig () in
  let finished = ref false in
  Dsim.Fiber.spawn cluster.Cluster.eng (fun () ->
      let v1 = Rpc.Client.invoke client ~op:"now" ~arg:"" in
      let v2 = Rpc.Client.invoke client ~op:"now" ~arg:"" in
      check bool "monotone" true (int_of_string v2 >= int_of_string v1);
      let s = Rpc.Client.invoke client ~op:"now_s" ~arg:"" in
      check bool "time() is second-granular" true
        (int_of_string s mod 1_000_000_000 = 0);
      finished := true);
  Cluster.run_until cluster (fun () -> !finished);
  Cluster.run_for cluster (Span.of_ms 20);
  (* all replicas computed the same values: their reply caches match the
     client's view, and no replica observed a rollback *)
  List.iter
    (fun r ->
      check Alcotest.int "no rollbacks" 0
        (Cts.Service.stats (Replica.service r)).Cts.Service.rollbacks)
    replicas

(* One node hosting two groups' time services, joined and ready at 40 ms. *)
let two_services () =
  let eng = Dsim.Engine.create () in
  let net = Netsim.Network.create eng Netsim.Network.default_config in
  let ep0 = Gcs.Endpoint.create eng net ~me:(Nid.of_int 0) ~bootstrap:true () in
  Gcs.Endpoint.start ep0;
  Dsim.Engine.run ~until:(Time.of_ms 20) eng;
  let clock = Clock.Hwclock.create eng Clock.Hwclock.default_config in
  let mk group =
    let service =
      Cts.Service.create eng ~endpoint:ep0 ~group:(Gid.of_int group) ~clock ()
    in
    Gcs.Endpoint.join_group ep0 (Gid.of_int group) ~handler:(fun ev ->
        match ev with
        | Gcs.Endpoint.Deliver { msg; _ } -> Cts.Service.on_message service msg
        | Gcs.Endpoint.View_change v -> Cts.Service.on_view service v
        | Gcs.Endpoint.Block | Gcs.Endpoint.Evicted -> ());
    service
  in
  let sa = mk 5 and sb = mk 6 in
  Dsim.Engine.run ~until:(Time.of_ms 40) eng;
  (eng, sa, sb)

let test_nested_context_restored () =
  let eng, sa, sb = two_services () in
  let thread = Cts.Thread_id.of_int 1 in
  let ok = ref false in
  Dsim.Fiber.spawn eng (fun () ->
      Cts.Interpose.with_context sa ~thread (fun () ->
          let outer_before = Cts.Interpose.context () in
          Cts.Interpose.with_context sb ~thread (fun () ->
              match Cts.Interpose.context () with
              | Some (s, _) ->
                  assert (
                    (s == sb)
                    [@ctslint.allow
                      "phys-equality"
                        "context restoration must hand back the same \
                         service value, not a copy"])
              | None -> assert false);
          let outer_after = Cts.Interpose.context () in
          (match (outer_before, outer_after) with
          | Some (s1, _), Some (s2, _) ->
              ok :=
                (s1 == sa && s2 == sa)
                [@ctslint.allow
                  "phys-equality"
                    "context restoration must hand back the same service \
                     value, not a copy"]
          | _ -> ok := false)));
  Dsim.Engine.run ~until:(Time.of_ms 60) eng;
  check bool "nesting restores the outer binding" true !ok

let test_context_isolated_between_fibers () =
  let eng = Dsim.Engine.create () in
  let seen = ref [] in
  Dsim.Fiber.spawn eng (fun () ->
      Dsim.Fiber.sleep eng (Span.of_us 5);
      seen := ("a", Cts.Interpose.context () = None) :: !seen);
  Dsim.Fiber.spawn eng (fun () ->
      seen := ("b", Cts.Interpose.context () = None) :: !seen);
  Dsim.Engine.run eng;
  check bool "no binding leaks across fibers" true
    (List.for_all snd !seen)

(* Each fiber's binding survives a blocking read: both fibers park inside
   [gettimeofday] (one CCS round per read), resume in turn while the other
   is still parked, and each still sees its own service. *)
let test_context_survives_blocking_read () =
  let eng, sa, sb = two_services () in
  let thread = Cts.Thread_id.of_int 1 in
  let log = ref [] in
  let reader name service =
    Dsim.Fiber.spawn eng (fun () ->
        Cts.Interpose.with_context service ~thread (fun () ->
            for round = 1 to 2 do
              let at = Printf.sprintf "%s%d " name round in
              log := (at ^ "parked") :: !log;
              ignore (Cts.Interpose.gettimeofday () : Time.t);
              let own =
                match Cts.Interpose.context () with
                | Some (s, _) ->
                    Gid.equal (Cts.Service.group s) (Cts.Service.group service)
                | None -> false
              in
              log := (at ^ if own then "own" else "LEAKED") :: !log
            done))
  in
  reader "a" sa;
  reader "b" sb;
  Dsim.Engine.run ~until:(Time.of_ms 80) eng;
  check
    (Alcotest.list str)
    "interleaved resumptions, each with its own binding"
    [
      "a1 parked"; "b1 parked"; "a1 own"; "a2 parked"; "b1 own"; "b2 parked";
      "a2 own"; "b2 own";
    ]
    (List.rev !log)

let test_interposed_equals_explicit () =
  (* reading through the transparent API and through the explicit one
     produce the same group clock sequence *)
  let cluster, replicas, client = make_rig ~seed:5L () in
  let finished = ref false in
  let r0 = List.hd replicas in
  Dsim.Fiber.spawn cluster.Cluster.eng (fun () ->
      let via_rpc = Rpc.Client.invoke client ~op:"now" ~arg:"" in
      check bool "value sane" true (int_of_string via_rpc > 0);
      (* next round, read explicitly at one replica's service: same clock
         plane (larger value, monotone) *)
      let explicit =
        Cts.Service.gettimeofday (Replica.service r0)
          ~thread:(Cts.Thread_id.of_int 9)
      in
      check bool "explicit read after interposed read is larger" true
        (Time.to_ns explicit >= int_of_string via_rpc);
      finished := true);
  Cluster.run_until cluster (fun () -> !finished);
  check str "smoke" "ok" "ok"

let suites =
  [
    ( "cts.interpose",
      [
        Alcotest.test_case "no context outside fiber" `Quick
          test_no_context_outside_fiber;
        Alcotest.test_case "no context in plain fiber" `Quick
          test_no_context_in_plain_fiber;
        Alcotest.test_case "transparent app" `Quick
          test_transparent_app_gets_group_clock;
        Alcotest.test_case "nested contexts" `Quick
          test_nested_context_restored;
        Alcotest.test_case "fiber isolation" `Quick
          test_context_isolated_between_fibers;
        Alcotest.test_case "binding survives a blocking read" `Quick
          test_context_survives_blocking_read;
        Alcotest.test_case "interposed = explicit plane" `Quick
          test_interposed_equals_explicit;
      ] );
  ]
