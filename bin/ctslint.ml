(* ctslint — determinism & replica-safety static analyzer for the CTS
   stack.  One pass over the .cmt typedtrees of a build: every .ml under
   the given paths (default: lib bin bench test examples) is walked once
   for the determinism rules, attribute hygiene, zero-alloc hot-path
   certification and domain safety of pool-reachable state.  A swept
   .ml without a typedtree is itself a finding, so run it after
   `dune build @check` — or just `dune build @lint`, which does both.

   See lib/lint/rules.ml and DESIGN.md §11.

     ctslint                      lint the tree, exit 1 on any finding
     ctslint --hotpath-report     also print the certification inventory
     ctslint lib/gcs              lint one subtree
     ctslint --list-rules         what is enforced
     ctslint --list-suppressions  every annotation and its reason
     ctslint --no-suppressions    audit mode: report even annotated sites *)

let default_paths = [ "lib"; "bin"; "bench"; "test"; "examples" ]

let () =
  let list_rules = ref false in
  let list_supps = ref false in
  let no_supps = ref false in
  let quiet = ref false in
  let hotpath_report = ref false in
  let build_dir = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--list-rules", Arg.Set list_rules, " print the rule set and exit");
      ( "--list-suppressions",
        Arg.Set list_supps,
        " print every annotation (file:line, rule, reason) and exit" );
      ( "--no-suppressions",
        Arg.Set no_supps,
        " audit mode: report findings even where suppressed" );
      ( "--hotpath-report",
        Arg.Set hotpath_report,
        " print the hot-path certification inventory" );
      ( "--build-dir",
        Arg.Set_string build_dir,
        "DIR where to find the bin-annot build (default: ./_build/default, \
         or . when already inside a build context)" );
      ("--quiet", Arg.Set quiet, " print findings only, no summary");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun p -> paths := p :: !paths)
    "ctslint [options] [paths]";
  if !list_rules then begin
    List.iter
      (fun (r : Lint.Rules.t) ->
        Printf.printf "%-16s %s%s\n" r.Lint.Rules.name r.Lint.Rules.summary
          (match r.Lint.Rules.allowed_in with
          | [] -> ""
          | l -> Printf.sprintf " (exempt: %s)" (String.concat ", " l)))
      Lint.Rules.all;
    exit 0
  end;
  let paths =
    match List.rev !paths with
    | [] -> List.filter Sys.file_exists default_paths
    | ps -> ps
  in
  let build_dir =
    match
      if !build_dir <> "" then Some !build_dir
      else Lint.Cmt_loader.find_build_dir (Sys.getcwd ())
    with
    | Some bd -> bd
    | None ->
        prerr_endline
          "ctslint: no bin-annot build found; run `dune build @check` first \
           (or pass --build-dir)";
        exit 2
  in
  let r =
    Lint.Typed_check.run ~respect_suppressions:(not !no_supps) ~build_dir
      paths
  in
  let suppressions = r.Lint.Typed_check.r_supps in
  if !list_supps then begin
    List.iter (fun s -> print_endline (Lint.Suppress.to_string s)) suppressions;
    Printf.printf "%d suppression(s) across %d file(s)\n"
      (List.length suppressions) r.Lint.Typed_check.r_files;
    exit 0
  end;
  let findings = r.Lint.Typed_check.r_findings in
  List.iter (fun f -> print_endline (Lint.Finding.to_string f)) findings;
  if !hotpath_report then print_string (Lint.Typed_check.hotpath_report r);
  let n = List.length findings in
  if not !quiet then
    Printf.printf
      "ctslint: %d unit(s) for %d swept file(s), %d function(s), %d/%d hot \
       root(s) certified, %d finding(s), %d suppression(s)\n"
      r.Lint.Typed_check.r_units r.Lint.Typed_check.r_files
      r.Lint.Typed_check.r_fns
      (List.length (List.filter snd r.Lint.Typed_check.r_roots))
      (List.length r.Lint.Typed_check.r_roots)
      n (List.length suppressions);
  exit (if n = 0 then 0 else 1)
