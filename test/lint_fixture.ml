(* Shared helpers for the ctslint tests: compiled fixtures and the
   live-tree analysis.

   Fixtures are real compiled code: each one writes its sources into a
   temp directory, runs [ocamlc -bin-annot -c] (the toolchain that built
   this very test), and feeds the directory through the same sweep the
   CLI uses — so the tests exercise typedtree shapes, not hand-built
   fact records.  Fixtures may name Unix, Thread, and small stand-ins
   for the project modules the rules know about (Mc.Explore,
   Monotonic_clock, Dsim.{Time,Det,Rng}). *)

let check = Alcotest.check
let int = Alcotest.int

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let sh fmt = Printf.ksprintf Sys.command fmt

let write_file path src =
  ignore (sh "mkdir -p %s" (Filename.quote (Filename.dirname path)));
  let oc = open_out path in
  output_string oc src;
  close_out oc

let fresh_dir () =
  let dir = Filename.temp_file "ctslint_fix_" ".d" in
  Sys.remove dir;
  ignore (sh "mkdir -p %s" (Filename.quote dir));
  dir

(* [ocamlc -c] of [files] (relative paths, dependency order) in [dir]. *)
let compile ?(flags = "") dir files =
  let srcs = String.concat " " (List.map Filename.quote files) in
  let rc =
    sh "cd %s && ocamlc -bin-annot -w -a %s -c %s > compile.log 2>&1"
      (Filename.quote dir) flags srcs
  in
  if rc <> 0 then begin
    ignore (sh "cat %s/compile.log 1>&2" (Filename.quote dir));
    Alcotest.failf "fixture failed to compile (ocamlc exit %d)" rc
  end

let stubs =
  lazy
    (let dir = fresh_dir () in
     at_exit (fun () -> ignore (sh "rm -rf %s" (Filename.quote dir)));
     List.iter
       (fun (rel, src) -> write_file (Filename.concat dir rel) src)
       [
         ("monotonic_clock.ml", "let now () = 0L\n");
         ( "mc.ml",
           "module Explore = struct\n\
           \  let wall () = 0.\n\
           \  let cpu () = 0.\n\
            end\n" );
         ( "dsim.ml",
           "module Time = struct let of_us (x : int) = x end\n\
            module Det = struct\n\
           \  let iter_sorted ~compare:(_ : 'k -> 'k -> int)\n\
           \      (_ : 'k -> 'v -> unit) (_ : ('k, 'v) Hashtbl.t) = ()\n\
            end\n\
            module Rng = struct let int_range (_ : unit) lo (_ : int) = lo end\n"
         );
       ];
     compile dir [ "monotonic_clock.ml"; "mc.ml"; "dsim.ml" ];
     dir)

(* [files] are (relative-path, source) pairs in dependency order; the
   relative path becomes [cmt_sourcefile], which is what the path-based
   policies (domain roots, exemptions) match against.  [uncompiled]
   sources are written but never compiled, as a file outside any dune
   stanza would be. *)
let analyze_fixture ?(respect = true) ?(uncompiled = []) files =
  let dir = fresh_dir () in
  List.iter
    (fun (rel, src) -> write_file (Filename.concat dir rel) src)
    (files @ uncompiled);
  compile
    ~flags:
      (Printf.sprintf "-I %s -I +unix -I +threads"
         (Filename.quote (Lazy.force stubs)))
    dir (List.map fst files);
  let r =
    Lint.Typed_check.run ~respect_suppressions:respect ~build_dir:dir [ dir ]
  in
  check int "every fixture unit loaded" (List.length files)
    r.Lint.Typed_check.r_units;
  ignore (sh "rm -rf %s" (Filename.quote dir));
  r

let findings r = r.Lint.Typed_check.r_findings

let rules_of r =
  List.map (fun f -> f.Lint.Finding.rule) r.Lint.Typed_check.r_findings

let count_rule rule r =
  List.length (List.filter (String.equal rule) (rules_of r))

let supp_with r pred = List.find_opt pred r.Lint.Typed_check.r_supps

(* ------------------------------------------------------------------ *)
(* The live tree                                                       *)

let repo_root () =
  (* Walk up from the runtime cwd (_build/default/test under dune) to
     the checkout: the first ancestor holding both .git and
     dune-project. *)
  let rec go d =
    if
      Sys.file_exists (Filename.concat d ".git")
      && Sys.file_exists (Filename.concat d "dune-project")
    then Some d
    else
      let p = Filename.dirname d in
      if String.equal p d then None else go p
  in
  go (Sys.getcwd ())

let tree_dirs = [ "lib"; "bin"; "bench"; "test"; "examples" ]

(* The lint of the whole checkout against its build, as `dune build
   @lint` runs it; None when not running from a checkout.  The test
   stanza depends on @check, so every swept file has its .cmt. *)
let live_run ~respect =
  match repo_root () with
  | None -> None
  | Some root ->
      Option.map
        (fun build_dir ->
          Lint.Typed_check.run ~respect_suppressions:respect ~build_dir
            (List.map (Filename.concat root) tree_dirs))
        (Lint.Cmt_loader.find_build_dir root)

let live = lazy (live_run ~respect:true)
let live_audit = lazy (live_run ~respect:false)
