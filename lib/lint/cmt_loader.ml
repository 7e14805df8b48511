(* Find the sources to lint and the typedtrees the lint runs on.

   The sweep collects every .ml under the given paths; each must have a
   typedtree.  Dune passes [-bin-annot], so every compiled module leaves
   a .cmt under [_build/default/**/.*objs/byte/] — under [@check] that
   includes each executable's main module, which [@default] does not
   write.  We walk that tree, read each .cmt with [Cmt_format.read_cmt],
   and keep the implementation typedtrees together with the *source*
   path the compiler recorded ([cmt_sourcefile] is relative to the build
   context root, e.g. "lib/dsim/event_queue.ml").

   A swept .ml with no loaded typedtree is a [missing-cmt] finding, so a
   file cannot silently escape the lint.  Generated wrapper modules
   (dune's "dsim.ml-gen" alias files) carry no user code and are
   skipped.  A .cmt written by a different compiler version fails to
   unmarshal; that is a [cmt-error] finding rather than a crash. *)

type unit_info = {
  ui_file : string;  (* source path, build-context-relative *)
  ui_modname : string;  (* normalized: "Dsim.Event_queue" *)
  ui_str : Typedtree.structure;
}

(* The build context root: [_build/default] under [root] when we run
   from a checkout, or [root] itself when we already run *inside* the
   context (the @lint dune action does). *)
let find_build_dir root =
  let candidate = Filename.concat (Filename.concat root "_build") "default" in
  if Sys.file_exists candidate && Sys.is_directory candidate then
    Some candidate
  else if
    (* inside a build context there is no nested _build, but the .objs
       directories are right here *)
    Sys.file_exists (Filename.concat root "lib")
  then Some root
  else None

(* Directory entries are sorted so the report order is stable across
   filesystems; [skip] names entries not to descend into. *)
let rec collect ~suffix ~skip acc path =
  if Sys.file_exists path && Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name = "_build" || skip name then acc
           else collect ~suffix ~skip acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path suffix then path :: acc
  else acc

(* Every .ml under [paths], skipping hidden entries and [_build]. *)
let collect_ml paths =
  List.rev
    (List.fold_left
       (collect ~suffix:".ml" ~skip:(fun n -> n.[0] = '.'))
       [] paths)

let load_cmt path =
  match Cmt_format.read_cmt path with
  | cmt -> (
      match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
      | Cmt_format.Implementation str, Some src
        when not (Filename.check_suffix src ".ml-gen") ->
          Ok
            (Some
               {
                 ui_file = src;
                 ui_modname = Rules.normalize_path cmt.Cmt_format.cmt_modname;
                 ui_str = str;
               })
      | _ -> Ok None (* interface-only, packed, or generated wrapper *))
  | exception _ ->
      Error
        {
          Finding.file = path;
          line = 1;
          col = 0;
          rule = "cmt-error";
          message =
            "cannot read .cmt (compiler version mismatch? rebuild with \
             `dune build @check`)";
        }

type sweep = {
  files : string list;  (* every swept .ml, in path order *)
  units : unit_info list;  (* their typedtrees, in the same order *)
  errors : Finding.t list;  (* cmt-error and missing-cmt findings *)
}

(* A swept path names the unit whose recorded source is its longest
   suffix at a '/' boundary: "lib/x.ml", "./lib/x.ml" and
   "/abs/checkout/lib/x.ml" all name "lib/x.ml". *)
let sweep ~build_dir paths =
  let by_src = Hashtbl.create 128 in
  let errors =
    List.fold_left
      (fun errs path ->
        match load_cmt path with
        | Ok (Some u) ->
            (* a module compiled into several executables leaves several
               identical cmts *)
            if not (Hashtbl.mem by_src u.ui_file) then
              Hashtbl.add by_src u.ui_file u;
            errs
        | Ok None -> errs
        | Error e -> e :: errs)
      []
      (List.rev (collect ~suffix:".cmt" ~skip:(fun _ -> false) [] build_dir))
  in
  let rec unit_of f =
    match Hashtbl.find_opt by_src f with
    | Some u -> Some u
    | None -> (
        match String.index_opt f '/' with
        | Some i -> unit_of (String.sub f (i + 1) (String.length f - i - 1))
        | None -> None)
  in
  let files = collect_ml paths in
  let units, missing =
    List.fold_left
      (fun (us, ms) f ->
        match unit_of f with
        | Some u -> (u :: us, ms)
        | None ->
            ( us,
              {
                Finding.file = f;
                line = 1;
                col = 0;
                rule = "missing-cmt";
                message =
                  "no typedtree for this file, so no rule ran on it: add it \
                   to a dune stanza, or rebuild with `dune build @check`";
              }
              :: ms ))
      ([], []) files
  in
  {
    files;
    units = List.rev units;
    errors = List.rev_append errors (List.rev missing);
  }
