(* Judge the facts Typed_facts extracted, over the whole program.

   Per-site rules (the six determinism rules and bad-suppression) were
   decided during the walk; here each site becomes a finding unless the
   allow it captured silences it.

   hotpath-alloc — every [@ctslint.hotpath] root must be transitively
   allocation-free.  Certification is a memoized, co-inductive DFS over
   the resolved call/reference graph: a function is certified when its
   own body places nothing on the heap AND everything it calls or
   captures is certified.  Recursive cycles (sift loops) assume the
   in-progress callee is certified — sound here because the callee's
   own faults still fail it.  A [@ctslint.allow "hotpath-alloc" ...] on
   a call site is a *certified-region boundary*: the callee behind it
   is deliberately not followed (that is how the indirect handler call
   in [fire_min_exn] and the gated observability hooks are sanctioned).
   Audit mode (--no-suppressions) follows it anyway, so the inventory
   shows what each boundary hides.

   domain-unsafe — starting from every function defined in
   [Rules.domain_root_files] (the pool's worker code), walk the same
   resolved edges and flag reads/writes of module-level mutable state
   that are neither DLS-backed nor made inside a lock-taking function.
   No declaration exempts a definition.

   Every consumed annotation is marked [s_used]; one that silenced
   nothing becomes an [unused-allow] finding. *)

type resolved =
  | RFn of Typed_facts.fn_fact
  | RGlob of Typed_facts.global_def
  | RVar  (* local variable, parameter, or nested let *)
  | RExtern of string  (* outside the analyzed tree *)

type result = {
  r_findings : Finding.t list;  (* sorted by file/line/col *)
  r_supps : Suppress.t list;  (* every annotation, used flags set *)
  r_roots : (Typed_facts.fn_fact * bool) list;  (* hot roots, certified? *)
  r_certified : string list;  (* every certified function, sorted *)
  r_files : int;  (* swept .ml files *)
  r_units : int;  (* typedtrees analyzed *)
  r_fns : int;
}

type env = {
  by_canon : (string, resolved) Hashtbl.t;  (* dotted path *)
  by_local : (string * string, resolved) Hashtbl.t;  (* (unit, ident) *)
  owner : (string, Typed_facts.unit_facts) Hashtbl.t;  (* fn canon -> unit *)
  respect : bool;
  mutable out : Finding.t list;
}

let build_env ~respect (units : Typed_facts.unit_facts list) =
  let env =
    {
      by_canon = Hashtbl.create 512;
      by_local = Hashtbl.create 512;
      owner = Hashtbl.create 512;
      respect;
      out = [];
    }
  in
  let add (u : Typed_facts.unit_facts) canon uniq r =
    Hashtbl.replace env.by_canon canon r;
    Option.iter
      (fun uq -> Hashtbl.replace env.by_local (u.Typed_facts.u_modname, uq) r)
      uniq
  in
  List.iter
    (fun (u : Typed_facts.unit_facts) ->
      (* globals first: a function rebinding a global's name wins *)
      List.iter
        (fun (g : Typed_facts.global_def) ->
          add u g.Typed_facts.g_canon (Some g.Typed_facts.g_uniq) (RGlob g))
        u.Typed_facts.u_globals;
      List.iter
        (fun (f : Typed_facts.fn_fact) ->
          Hashtbl.replace env.owner f.Typed_facts.f_canon u;
          add u f.Typed_facts.f_canon f.Typed_facts.f_uniq (RFn f))
        u.Typed_facts.u_fns)
    units;
  env

let resolve env (u : Typed_facts.unit_facts) (r : Typed_facts.ref_fact) =
  match r.Typed_facts.r_callee with
  | Typed_facts.Local uq ->
      Option.value ~default:RVar
        (Hashtbl.find_opt env.by_local (u.Typed_facts.u_modname, uq))
  | Typed_facts.Global dotted ->
      Option.value ~default:(RExtern dotted)
        (Hashtbl.find_opt env.by_canon dotted)

let emit env ~file ~(loc : Location.t) ~rule msg =
  env.out <- Finding.v ~file ~loc ~rule msg :: env.out

(* A fault is silenced by its captured allow; consuming the allow marks
   it used either way, and --no-suppressions re-surfaces the finding. *)
let fault env ~file ~loc ~rule ~(supp : Suppress.t option) msg =
  match supp with
  | Some s ->
      s.Suppress.s_used <- true;
      if not env.respect then emit env ~file ~loc ~rule msg;
      false
  | None ->
      emit env ~file ~loc ~rule msg;
      true

(* ------------------------------------------------------------------ *)
(* hotpath-alloc certification                                         *)

type cert_state = In_progress | Done of bool

let certify env =
  let states : (string, cert_state) Hashtbl.t = Hashtbl.create 128 in
  let rec go (f : Typed_facts.fn_fact) =
    match Hashtbl.find_opt states f.Typed_facts.f_canon with
    | Some (Done ok) -> ok
    | Some In_progress -> true (* co-inductive: cycles are fine *)
    | None ->
        Hashtbl.replace states f.Typed_facts.f_canon In_progress;
        let u =
          match Hashtbl.find_opt env.owner f.Typed_facts.f_canon with
          | Some u -> u
          | None -> assert false
        in
        let file = f.Typed_facts.f_file in
        let rule = "hotpath-alloc" in
        let faulted = ref false in
        (match f.Typed_facts.f_ret_boxed with
        | Some ty ->
            if
              fault env ~file ~loc:f.Typed_facts.f_loc ~rule ~supp:None
                (Printf.sprintf
                   "%s returns a boxed %s: the box is allocated on every \
                    call"
                   f.Typed_facts.f_canon ty)
            then faulted := true
        | None -> ());
        List.iter
          (fun (a : Typed_facts.site) ->
            if
              fault env ~file ~loc:a.Typed_facts.t_loc ~rule
                ~supp:a.Typed_facts.t_supp
                (Printf.sprintf "%s: %s" f.Typed_facts.f_canon
                   a.Typed_facts.t_msg)
            then faulted := true)
          f.Typed_facts.f_allocs;
        List.iter
          (fun (r : Typed_facts.ref_fact) ->
            let supp = r.Typed_facts.r_supp_hot in
            match supp with
            | Some s when env.respect ->
                (* certified-region boundary: the callee behind an
                   allowed edge is deliberately not followed *)
                s.Suppress.s_used <- true
            | _ -> (
                match resolve env u r with
                | RGlob _ -> () (* reading a global is free *)
                | RFn callee ->
                    if
                      (not (go callee))
                      && fault env ~file ~loc:r.Typed_facts.r_loc ~rule ~supp
                           (Printf.sprintf
                              "%s %s %s, which is not allocation-free"
                              f.Typed_facts.f_canon
                              (if r.Typed_facts.r_is_call then "calls"
                               else "captures")
                              callee.Typed_facts.f_canon)
                    then faulted := true
                | RVar ->
                    if
                      r.Typed_facts.r_is_call
                      && fault env ~file ~loc:r.Typed_facts.r_loc ~rule ~supp
                           (Printf.sprintf
                              "%s calls a local function value; the \
                               certifier cannot see the target"
                              f.Typed_facts.f_canon)
                    then faulted := true
                | RExtern name ->
                    if
                      r.Typed_facts.r_is_call
                      && fault env ~file ~loc:r.Typed_facts.r_loc ~rule ~supp
                           (Printf.sprintf
                              "%s calls %s, which is outside the certified \
                               set"
                              f.Typed_facts.f_canon name)
                    then faulted := true))
          f.Typed_facts.f_refs;
        let ok = not !faulted in
        Hashtbl.replace states f.Typed_facts.f_canon (Done ok);
        ok
  in
  (go, states)

(* ------------------------------------------------------------------ *)
(* domain-unsafe reachability                                          *)

let domain_check env (units : Typed_facts.unit_facts list) =
  let roots =
    List.concat_map
      (fun (u : Typed_facts.unit_facts) ->
        if Rules.is_domain_root_file u.Typed_facts.u_file then
          u.Typed_facts.u_fns
        else [])
      units
  in
  (* reachable closure over call AND capture edges: a task closure handed
     to a worker runs there even though it is never "called" in pool.ml *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 128 in
  let rec visit (f : Typed_facts.fn_fact) =
    if not (Hashtbl.mem seen f.Typed_facts.f_canon) then begin
      Hashtbl.replace seen f.Typed_facts.f_canon ();
      let u =
        match Hashtbl.find_opt env.owner f.Typed_facts.f_canon with
        | Some u -> u
        | None -> assert false
      in
      List.iter
        (fun (r : Typed_facts.ref_fact) ->
          match resolve env u r with
          | RFn g -> visit g
          | RGlob g -> (
              match g.Typed_facts.g_kind with
              | Typed_facts.Safe | Typed_facts.Other -> ()
              | Typed_facts.Mutable what ->
                  if f.Typed_facts.f_locks then ()
                    (* accessed by a lock-taking function: treated as a
                       protected critical section *)
                  else
                    ignore
                      (fault env ~file:f.Typed_facts.f_file
                         ~loc:r.Typed_facts.r_loc ~rule:"domain-unsafe"
                         ~supp:r.Typed_facts.r_supp_dom
                         (Printf.sprintf
                            "%s reaches %s (%s, defined at %s:%d) from pool \
                             worker code; make it DLS or guard it with a \
                             lock"
                            f.Typed_facts.f_canon g.Typed_facts.g_canon what
                            g.Typed_facts.g_file
                            g.Typed_facts.g_loc.Location.loc_start
                              .Lexing.pos_lnum)
                        : bool))
          | RVar | RExtern _ -> ())
        f.Typed_facts.f_refs
    end
  in
  List.iter visit roots

(* ------------------------------------------------------------------ *)

let site_check env (units : Typed_facts.unit_facts list) =
  List.iter
    (fun (u : Typed_facts.unit_facts) ->
      List.iter
        (fun (t : Typed_facts.site) ->
          ignore
            (fault env ~file:u.Typed_facts.u_file ~loc:t.Typed_facts.t_loc
               ~rule:t.Typed_facts.t_rule ~supp:t.Typed_facts.t_supp
               t.Typed_facts.t_msg
              : bool))
        u.Typed_facts.u_sites)
    units

(* Annotations that silenced nothing.  Runs last, after every rule has
   had its chance to consume them. *)
let unused_check env (units : Typed_facts.unit_facts list) =
  List.iter
    (fun (u : Typed_facts.unit_facts) ->
      List.iter
        (fun (s : Suppress.t) ->
          if (not s.Suppress.s_used) && env.respect then
            env.out <-
              {
                Finding.file = u.Typed_facts.u_file;
                line = s.Suppress.s_line;
                col = 0;
                rule = "unused-allow";
                message =
                  (match s.Suppress.s_scope with
                  | Suppress.File ->
                      Printf.sprintf
                        "file-level suppression of %S silences nothing; \
                         delete it"
                        s.Suppress.s_rule
                  | Suppress.Scoped ->
                      Printf.sprintf
                        "suppression of %S silences nothing; delete it"
                        s.Suppress.s_rule);
              }
              :: env.out)
        u.Typed_facts.u_supps)
    units

(* ------------------------------------------------------------------ *)

(* The whole lint: sweep [paths] for .ml files, walk each one's
   typedtree once, and judge every rule. *)
let run ?(respect_suppressions = true) ~build_dir paths =
  let sweep = Cmt_loader.sweep ~build_dir paths in
  let units = List.map Typed_facts.walk_unit sweep.Cmt_loader.units in
  let env = build_env ~respect:respect_suppressions units in
  let go, states = certify env in
  let roots =
    List.concat_map
      (fun (u : Typed_facts.unit_facts) ->
        List.filter
          (fun (f : Typed_facts.fn_fact) -> f.Typed_facts.f_hotpath)
          u.Typed_facts.u_fns)
      units
  in
  let roots = List.map (fun f -> (f, go f)) roots in
  domain_check env units;
  site_check env units;
  unused_check env units;
  let certified =
    Hashtbl.fold
      (fun canon st acc ->
        match st with Done true -> canon :: acc | _ -> acc)
      states []
    |> List.sort String.compare
  in
  let n_fns =
    List.fold_left
      (fun n (u : Typed_facts.unit_facts) ->
        n + List.length u.Typed_facts.u_fns)
      0 units
  in
  {
    r_findings = List.sort Finding.compare (sweep.Cmt_loader.errors @ env.out);
    r_supps = List.concat_map (fun u -> u.Typed_facts.u_supps) units;
    r_roots =
      List.sort
        (fun ((a : Typed_facts.fn_fact), _) (b, _) ->
          String.compare a.Typed_facts.f_canon b.Typed_facts.f_canon)
        roots;
    r_certified = certified;
    r_files = List.length sweep.Cmt_loader.files;
    r_units = List.length units;
    r_fns = n_fns;
  }

(* ------------------------------------------------------------------ *)

(* Human-readable certification inventory for --hotpath-report: every
   annotated root, its verdict, and the full certified set the roots
   pulled in.  This list is the static half of the static-vs-dynamic
   cross-check in test/test_lint_typed.ml. *)
let hotpath_report (r : result) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "hot-path allocation certificate\n";
  Buffer.add_string b
    (Printf.sprintf "  %d unit(s) analyzed, %d function(s), %d root(s)\n"
       r.r_units r.r_fns (List.length r.r_roots));
  List.iter
    (fun ((f : Typed_facts.fn_fact), ok) ->
      Buffer.add_string b
        (Printf.sprintf "  root %-42s %s  (%s:%d)\n" f.Typed_facts.f_canon
           (if ok then "CERTIFIED" else "FAILED")
           f.Typed_facts.f_file
           f.Typed_facts.f_loc.Location.loc_start.Lexing.pos_lnum))
    r.r_roots;
  Buffer.add_string b
    (Printf.sprintf "  certified set (%d):\n" (List.length r.r_certified));
  List.iter
    (fun c -> Buffer.add_string b (Printf.sprintf "    %s\n" c))
    r.r_certified;
  Buffer.contents b
