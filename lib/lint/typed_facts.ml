(* The one lint walk: extract everything the rules need from one
   typedtree in a single pass.

   - Determinism sites: every identifier is classified on its resolved,
     normalized path (Rules.classify), so a [Hashtbl.iter] reached
     through [module H = Hashtbl] or an [open] is as visible as one
     spelled out; [try ... with _ ->] is an exn-swallow site.  A
     [Hashtbl.fold] in argument position of a sort (or piped into one)
     is pure aggregation and stays clean.
   - Attribute hygiene: every [@ctslint.*] attribute is parsed strictly
     (Suppress.parse); a malformed one is a bad-suppression site.
   - Per-function facts for the whole-program rules Typed_check judges:
     allocation sites, call/reference edges, module-level mutable
     definitions and their uses.

   An active-allow stack follows the typedtree's attributes (they are
   the same [Parsetree.attribute] values); a floating
   [@@@ctslint.allow ...] is active for the whole file, wherever it
   appears.  Each site and fact snapshots the innermost matching allow
   for its rule.  Whether that allow is *used* is decided later, by the
   checker, when the fact actually becomes a finding — so an allow on a
   cold path dies as unused-allow instead of silently sanctioning
   nothing. *)

type callee =
  | Local of string  (* Ident.unique_name within this unit *)
  | Global of string  (* normalized dotted path: "Dsim.Event_queue.push" *)

type ref_fact = {
  r_loc : Location.t;
  r_callee : callee;
  r_is_call : bool;  (* head of an application vs value reference *)
  r_supp_hot : Suppress.t option;  (* active hotpath-alloc allow *)
  r_supp_dom : Suppress.t option;  (* active domain-unsafe allow *)
}

(* A finding-to-be at one place: a determinism or bad-suppression site,
   or an allocation (rule hotpath-alloc), with the allow active for its
   rule. *)
type site = {
  t_loc : Location.t;
  t_rule : string;
  t_msg : string;
  t_supp : Suppress.t option;
}

type fn_fact = {
  f_canon : string;  (* "Dsim.Event_queue.sift_up" *)
  f_uniq : string option;  (* Ident.unique_name, None for the init fact *)
  f_file : string;
  f_loc : Location.t;
  f_hotpath : bool;
  f_ret_boxed : string option;  (* Some "float"/"int64"/... if boxed *)
  mutable f_allocs : site list;
  mutable f_refs : ref_fact list;
  mutable f_locks : bool;  (* body takes a Mutex: lock-protected section *)
}

type global_kind = Mutable of string | Safe | Other

type global_def = {
  g_canon : string;
  g_uniq : string;
  g_file : string;
  g_loc : Location.t;
  g_kind : global_kind;
}

type unit_facts = {
  u_file : string;
  u_modname : string;
  u_fns : fn_fact list;  (* in definition order *)
  u_globals : global_def list;
  u_sites : site list;
  u_supps : Suppress.t list;  (* every annotation, file order *)
}

(* ------------------------------------------------------------------ *)

let boxed_name (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      if Path.same p Predef.path_float then Some "float"
      else if Path.same p Predef.path_int64 then Some "int64"
      else if Path.same p Predef.path_int32 then Some "int32"
      else if Path.same p Predef.path_nativeint then Some "nativeint"
      else None
  | _ -> None

let is_arrow (ty : Types.type_expr) =
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false

type ctx = {
  file : string;
  modname : string;
  mutable active : Suppress.t list;
  mutable supps : Suppress.t list;  (* reverse order *)
  mutable cur : fn_fact;
  mutable fns : fn_fact list;  (* reverse order *)
  mutable globals : global_def list;  (* reverse order *)
  mutable sites : site list;  (* reverse order *)
  mutable sort_depth : int;  (* inside an order-restoring consumer *)
  aliases : (string, string) Hashtbl.t;
      (* module alias ident (unique name) -> resolved dotted path *)
}

let active_for ctx rule =
  List.find_opt (fun s -> String.equal s.Suppress.s_rule rule) ctx.active

let at ctx ~loc ~rule msg =
  { t_loc = loc; t_rule = rule; t_msg = msg; t_supp = active_for ctx rule }

let site ctx ~loc ~rule msg =
  if not (Rules.exempt (Rules.find rule) ~file:ctx.file) then
    ctx.sites <- at ctx ~loc ~rule msg :: ctx.sites

(* Register one attribute: allows join the inventory, malformed
   annotations become bad-suppression sites. *)
let suppression_of_attr ctx ~scope (attr : Parsetree.attribute) =
  match Suppress.parse attr with
  | Suppress.Allow { rule; reason } ->
      let s =
        {
          Suppress.s_file = ctx.file;
          s_line = attr.Parsetree.attr_loc.Location.loc_start.Lexing.pos_lnum;
          s_rule = rule;
          s_reason = reason;
          s_scope = scope;
          s_used = false;
        }
      in
      ctx.supps <- s :: ctx.supps;
      Some s
  | Suppress.Bad msg ->
      site ctx ~loc:attr.Parsetree.attr_loc ~rule:"bad-suppression" msg;
      None
  | Suppress.Other | Suppress.Hotpath -> None

(* Registers [attrs] and returns the allows among them, active until
   [pop_attrs]. *)
let push_attrs ctx attrs =
  let pushed =
    List.filter_map (suppression_of_attr ctx ~scope:Suppress.Scoped) attrs
  in
  ctx.active <- pushed @ ctx.active;
  pushed

let pop_attrs ctx pushed =
  List.iter
    (fun (s : Suppress.t) ->
      ctx.active <-
        List.filter
          (fun s' ->
            (s' != s)
            [@ctslint.allow
              "phys-equality"
                "removing exactly this stack entry, not a structural twin"])
          ctx.active)
    pushed

let alloc ctx ~loc what =
  ctx.cur.f_allocs <- at ctx ~loc ~rule:"hotpath-alloc" what :: ctx.cur.f_allocs

let reference ctx ~loc ~is_call callee =
  ctx.cur.f_refs <-
    {
      r_loc = loc;
      r_callee = callee;
      r_is_call = is_call;
      r_supp_hot = active_for ctx "hotpath-alloc";
      r_supp_dom = active_for ctx "domain-unsafe";
    }
    :: ctx.cur.f_refs

(* ------------------------------------------------------------------ *)
(* Expression walk                                                     *)

let prim_of (vd : Types.value_description) =
  match vd.Types.val_kind with
  | Types.Val_prim pd -> Some pd.Primitive.prim_name
  | _ -> None

(* The identifier's dotted path with module aliases resolved, then
   normalized ("Stdlib.Hashtbl.iter" -> "Hashtbl.iter"). *)
let dotted ctx (path : Path.t) =
  let rec go = function
    | Path.Pident id -> (
        match Hashtbl.find_opt ctx.aliases (Ident.unique_name id) with
        | Some target -> target
        | None -> Ident.name id)
    | Path.Pdot (p, s) -> go p ^ "." ^ s
    | p -> Path.name p
  in
  Rules.normalize_path (go path)

let components dotted =
  List.filter (fun c -> c <> "") (String.split_on_char '.' dotted)

let check_path ctx ~loc dotted =
  match Rules.classify (components dotted) with
  | Rules.Clean -> ()
  | Rules.Phys_eq op ->
      site ctx ~rule:"phys-equality" ~loc
        (Printf.sprintf
           "physical equality (%s) depends on value representation, not \
            contents; use structural (=/<>) or annotate the sanctioned \
            sentinel identity check"
           op)
  | Rules.Hash_iter ->
      site ctx ~rule:"hash-order" ~loc
        "Hashtbl.iter visits bindings in hash-bucket order, which varies \
         with seeding and growth history; use Dsim.Det.iter_sorted (or \
         annotate a genuinely order-free callback)"
  | Rules.Hash_fold ->
      if ctx.sort_depth = 0 then
        site ctx ~rule:"hash-order" ~loc
          "Hashtbl.fold exposes hash-bucket order; sort the result in \
           place (List.sort (... Hashtbl.fold ...)), use \
           Dsim.Det.sorted_bindings, or annotate a commutative fold"
  | Rules.Wall_clock id ->
      site ctx ~rule:"wall-clock" ~loc
        (Printf.sprintf
           "%s reads real time; replicas must read time through the CTS \
            interposition (paper \xc2\xa73) and simulations through \
            Dsim.Time"
           id)
  | Rules.Random_use id ->
      site ctx ~rule:"unseeded-random" ~loc
        (Printf.sprintf
           "%s draws from the ambient generator; use the run's seeded \
            Dsim.Rng so schedules replay"
           id)
  | Rules.Domain_use id ->
      site ctx ~rule:"domain-hygiene" ~loc
        (Printf.sprintf
           "%s spawns or names domains outside Mc.Pool; parallelism must \
            go through the pool's deterministic merge"
           id)

let handle_ident ctx ~is_call (path : Path.t)
    (vd : Types.value_description) (loc : Location.t) =
  let dotted = dotted ctx path in
  check_path ctx ~loc dotted;
  match prim_of vd with
  | Some prim ->
      if is_call && Rules.prim_allocates prim then
        alloc ctx ~loc
          (Printf.sprintf "allocating primitive %s (%s)" dotted prim)
      else if is_call then ()
      else if Rules.prim_allocates prim then
        (* referencing an allocating primitive as a value both allocates
           its closure and hides the allocation behind an indirect call *)
        alloc ctx ~loc
          (Printf.sprintf "allocating primitive %s passed as a value" dotted)
  | None -> (
      if is_call && Rules.is_cold_error dotted then ()
      else
        match path with
        | Path.Pident id ->
            reference ctx ~loc ~is_call (Local (Ident.unique_name id))
        | _ -> reference ctx ~loc ~is_call (Global dotted))

(* Is [e] an order-restoring consumer in function position — an ident
   like [List.sort], possibly partially applied ([List.sort cmp])? *)
let rec is_sort_expr ctx (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) ->
      Rules.is_sort_path (components (dotted ctx p))
  | Typedtree.Texp_apply (f, _) -> is_sort_expr ctx f
  | _ -> false

let record_alias ctx id (me : Typedtree.module_expr) =
  let rec target (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some (dotted ctx p)
    | Typedtree.Tmod_constraint (me, _, _, _) -> target me
    | _ -> None
  in
  match (id, target me) with
  | Some id, Some t -> Hashtbl.replace ctx.aliases (Ident.unique_name id) t
  | _ -> ()

(* What constructing [desc] puts on the heap, if anything. *)
let allocation : Typedtree.expression_desc -> string option = function
  | Typedtree.Texp_function _ -> Some "closure construction"
  | Typedtree.Texp_tuple _ -> Some "tuple allocation"
  | Typedtree.Texp_construct (_, cd, _ :: _) ->
      Some (Printf.sprintf "constructor %s allocation" cd.Types.cstr_name)
  | Typedtree.Texp_variant (_, Some _) -> Some "polymorphic variant allocation"
  | Typedtree.Texp_record _ -> Some "record allocation"
  | Typedtree.Texp_array _ -> Some "array literal allocation"
  | Typedtree.Texp_lazy _ -> Some "lazy thunk allocation"
  | Typedtree.Texp_letmodule _ | Typedtree.Texp_pack _
  | Typedtree.Texp_object _ ->
      Some "first-class module / object allocation"
  | Typedtree.Texp_letop _ -> Some "binding operator allocates closures"
  | _ -> None

let rec walk_expr ctx iter (e : Typedtree.expression) =
  let pushed = push_attrs ctx e.Typedtree.exp_attributes in
  let loc = e.Typedtree.exp_loc in
  (match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, lid, vd) ->
      handle_ident ctx ~is_call:false p vd lid.Location.loc
  | Typedtree.Texp_apply (f, args) -> (
      (match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, lid, vd) ->
          let pushed = push_attrs ctx f.Typedtree.exp_attributes in
          handle_ident ctx ~is_call:true p vd lid.Location.loc;
          pop_attrs ctx pushed;
          (* boxed arguments crossing a non-primitive call boundary are
             boxed by the caller; primitive calls stay unboxed *)
          if prim_of vd = None then
            List.iter
              (fun (_, a) ->
                match a with
                | Some (a : Typedtree.expression) -> (
                    match boxed_name a.Typedtree.exp_type with
                    | Some ty ->
                        alloc ctx ~loc:a.Typedtree.exp_loc
                          (Printf.sprintf
                             "boxed %s argument crosses a call boundary" ty)
                    | None -> ())
                | None -> ())
              args
      | _ ->
          alloc ctx ~loc:f.Typedtree.exp_loc
            "indirect call (function value; target unknown to the \
             certifier)";
          walk_expr ctx iter f);
      (* arguments of a sort, and the left side of [... |> List.sort
         cmp], are inside an order-restoring consumer *)
      let piped_into_sort =
        match (f.Typedtree.exp_desc, args) with
        | Typedtree.Texp_ident (p, _, _), [ _; (_, Some rhs) ] ->
            dotted ctx p = "|>" && is_sort_expr ctx rhs
        | _ -> false
      in
      let sorts = is_sort_expr ctx f in
      List.iteri
        (fun i (_, a) ->
          match a with
          | Some a ->
              let d = if sorts || (piped_into_sort && i = 0) then 1 else 0 in
              ctx.sort_depth <- ctx.sort_depth + d;
              walk_expr ctx iter a;
              ctx.sort_depth <- ctx.sort_depth - d
          | None -> ())
        args;
      match
        (f.Typedtree.exp_desc, is_arrow e.Typedtree.exp_type)
      with
      | Typedtree.Texp_ident (_, _, vd), true when prim_of vd = None ->
          alloc ctx ~loc "partial application builds a closure"
      | _ -> ())
  | desc ->
      (match desc with
      | Typedtree.Texp_try (_, cases) ->
          List.iter
            (fun (c : Typedtree.value Typedtree.case) ->
              match c.Typedtree.c_lhs.Typedtree.pat_desc with
              | Typedtree.Tpat_any ->
                  site ctx ~rule:"exn-swallow"
                    ~loc:c.Typedtree.c_lhs.Typedtree.pat_loc
                    "catch-all `with _ ->` discards the exception; match \
                     the specific exceptions this code expects, or bind \
                     and surface it"
              | _ -> ())
            cases
      | Typedtree.Texp_letmodule (id, _, _, me, _) -> record_alias ctx id me
      | _ -> ());
      Option.iter (alloc ctx ~loc) (allocation desc);
      Tast_iterator.default_iterator.Tast_iterator.expr iter e);
  pop_attrs ctx pushed

(* ------------------------------------------------------------------ *)
(* Structure walk                                                      *)

let has_hotpath attrs =
  List.exists
    (fun a -> match Suppress.parse a with Suppress.Hotpath -> true | _ -> false)
    attrs

(* Unroll the parameter chain of a top-level definition: single-case
   [fun p ->] layers are parameters (one n-ary function at runtime, no
   per-call closure); the first multi-case [function] or non-function
   node is the body. *)
let rec body_of (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_function
      { cases = [ { Typedtree.c_guard = None; c_rhs; _ } ]; _ } ->
      body_of c_rhs
  | _ -> e

let classify_global_rhs (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_apply (f, _) -> (
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, vd) -> (
          match prim_of vd with
          | Some "%makemutable" -> Mutable "ref cell"
          | _ ->
              let name = Path.name p in
              if Rules.is_safe_ctor name then Safe
              else if Rules.is_mutable_ctor name then
                Mutable (Rules.normalize_path name)
              else Other)
      | _ -> Other)
  | Typedtree.Texp_array (_ :: _) -> Mutable "array literal"
  | _ -> Other

let walk_unit (u : Cmt_loader.unit_info) =
  let init_fact prefix =
    {
      f_canon = prefix ^ ".(init)";
      f_uniq = None;
      f_file = u.Cmt_loader.ui_file;
      f_loc = Location.none;
      f_hotpath = false;
      f_ret_boxed = None;
      f_allocs = [];
      f_refs = [];
      f_locks = false;
    }
  in
  let ctx =
    {
      file = u.Cmt_loader.ui_file;
      modname = u.Cmt_loader.ui_modname;
      active = [];
      supps = [];
      cur = init_fact u.Cmt_loader.ui_modname;
      fns = [];
      globals = [];
      sites = [];
      sort_depth = 0;
      aliases = Hashtbl.create 8;
    }
  in
  let init = ctx.cur in
  ctx.fns <- [ init ];
  (* iterator used for default descent inside walk_expr *)
  let rec iter =
    lazy
      (let d = Tast_iterator.default_iterator in
       {
         d with
         Tast_iterator.expr = (fun _ e -> walk_expr ctx (Lazy.force iter) e);
         value_binding =
           (fun sub vb ->
             (* nested lets: attributes on the binding scope its RHS *)
             let pushed = push_attrs ctx vb.Typedtree.vb_attributes in
             d.Tast_iterator.value_binding sub vb;
             pop_attrs ctx pushed);
       })
  in
  let iter = Lazy.force iter in
  let rec walk_items prefix items =
    List.iter (walk_item prefix) items
  and walk_item prefix (si : Typedtree.structure_item) =
    match si.Typedtree.str_desc with
    | Typedtree.Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let pushed = push_attrs ctx vb.Typedtree.vb_attributes in
            (* a binding with a type annotation ([let nil : ty = ...])
               elaborates to Tpat_alias over the constraint; both shapes
               bind one ident *)
            (match
               match vb.Typedtree.vb_pat.Typedtree.pat_desc with
               | Typedtree.Tpat_var (id, _) -> Some id
               | Typedtree.Tpat_alias (_, id, _) -> Some id
               | _ -> None
             with
            | Some id -> (
                let name = Ident.name id in
                let canon = prefix ^ "." ^ name in
                let body = body_of vb.Typedtree.vb_expr in
                let unrolled =
                  (body != vb.Typedtree.vb_expr)
                  [@ctslint.allow
                    "phys-equality"
                      "checking whether body_of unrolled at least one \
                       parameter layer, i.e. node identity"]
                in
                let is_fn =
                  unrolled || is_arrow vb.Typedtree.vb_expr.Typedtree.exp_type
                in
                if is_fn then begin
                  let fact =
                    {
                      f_canon = canon;
                      f_uniq = Some (Ident.unique_name id);
                      f_file = ctx.file;
                      f_loc = vb.Typedtree.vb_loc;
                      f_hotpath = has_hotpath vb.Typedtree.vb_attributes;
                      f_ret_boxed = boxed_name body.Typedtree.exp_type;
                      f_allocs = [];
                      f_refs = [];
                      f_locks = false;
                    }
                  in
                  ctx.fns <- fact :: ctx.fns;
                  let saved = ctx.cur in
                  ctx.cur <- fact;
                  (* walk the body only: the parameter chain itself is
                     the function's static code, not an allocation *)
                  (match body.Typedtree.exp_desc with
                  | Typedtree.Texp_function { cases; _ } ->
                      List.iter
                        (fun (c : Typedtree.value Typedtree.case) ->
                          (match c.Typedtree.c_guard with
                          | Some g -> walk_expr ctx iter g
                          | None -> ());
                          walk_expr ctx iter c.Typedtree.c_rhs)
                        cases
                  | _ -> walk_expr ctx iter body);
                  ctx.cur <- saved
                end
                else begin
                  ctx.globals <-
                    {
                      g_canon = canon;
                      g_uniq = Ident.unique_name id;
                      g_file = ctx.file;
                      g_loc = vb.Typedtree.vb_loc;
                      g_kind = classify_global_rhs vb.Typedtree.vb_expr;
                    }
                    :: ctx.globals;
                  walk_expr ctx iter vb.Typedtree.vb_expr
                end)
            | _ -> walk_expr ctx iter vb.Typedtree.vb_expr);
            pop_attrs ctx pushed)
          vbs
    | Typedtree.Tstr_eval (e, attrs) ->
        let pushed = push_attrs ctx attrs in
        walk_expr ctx iter e;
        pop_attrs ctx pushed
    | Typedtree.Tstr_module mb -> walk_module prefix mb
    | Typedtree.Tstr_recmodule mbs -> List.iter (walk_module prefix) mbs
    | _ -> ()
  and walk_module prefix (mb : Typedtree.module_binding) =
    record_alias ctx mb.Typedtree.mb_id mb.Typedtree.mb_expr;
    let sub =
      match mb.Typedtree.mb_id with
      | Some id -> prefix ^ "." ^ Ident.name id
      | None -> prefix
    in
    walk_modexpr sub mb.Typedtree.mb_expr
  and walk_modexpr prefix (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_structure str -> walk_items prefix str.Typedtree.str_items
    | Typedtree.Tmod_constraint (me, _, _, _) | Typedtree.Tmod_functor (_, me)
      ->
        walk_modexpr prefix me
    | Typedtree.Tmod_apply (f, arg, _) ->
        walk_modexpr prefix f;
        walk_modexpr prefix arg
    | Typedtree.Tmod_unpack (e, _) -> walk_expr ctx iter e
    | _ -> ()
  in
  let items = u.Cmt_loader.ui_str.Typedtree.str_items in
  (* floating [@@@ctslint.allow ...] items cover the whole file, wherever
     they appear *)
  List.iter
    (fun (si : Typedtree.structure_item) ->
      match si.Typedtree.str_desc with
      | Typedtree.Tstr_attribute a -> (
          match suppression_of_attr ctx ~scope:Suppress.File a with
          | Some s -> ctx.active <- ctx.active @ [ s ]
          | None -> ())
      | _ -> ())
    items;
  walk_items u.Cmt_loader.ui_modname items;
  (* lock-protected sections: a function that takes a Mutex is treated
     as a critical section for the globals it touches *)
  List.iter
    (fun f ->
      if
        List.exists
          (fun r ->
            r.r_is_call
            &&
            match r.r_callee with
            | Global g -> g = "Mutex.lock" || g = "Mutex.protect"
            | Local _ -> false)
          f.f_refs
      then f.f_locks <- true)
    ctx.fns;
  {
    u_file = ctx.file;
    u_modname = ctx.modname;
    u_fns = List.rev ctx.fns;
    u_globals = List.rev ctx.globals;
    u_sites = List.rev ctx.sites;
    u_supps =
      List.stable_sort
        (fun a b -> Int.compare a.Suppress.s_line b.Suppress.s_line)
        (List.rev ctx.supps);
  }
