(* The determinism contract, as executable rules.

   The paper's premise (§1, §3) is that replica consistency dies the
   moment application code reads a nondeterministic source directly —
   that is why CCS interposes gettimeofday()/time()/ftime().  Our whole
   stack leans on the same contract: dsim replay, mc schedule
   exploration, the multicore pool's identical-at-any-N merge and the
   obs trace monotonicity checker all assume a run is a pure function of
   its seed and schedule.  Each rule below names one way that assumption
   silently breaks.  One walk over each module's typedtree (Typed_facts)
   finds the sites, and Typed_check judges them. *)

type t = {
  name : string;
  summary : string;
  allowed_in : string list;
      (* path fragments ("lib/mc/pool.ml"): files matching any fragment
         are exempt — the hard whitelist, as opposed to the per-site
         [@ctslint.allow] escape hatch *)
}

let all =
  [
    {
      name = "wall-clock";
      summary =
        "real-time reads and host runtime calls (Unix.*, Thread.*, \
         Sys.time, monotonic-clock, console input, and the project's \
         clock wrappers)";
      allowed_in = [];
    };
    {
      name = "hash-order";
      summary =
        "Hashtbl.iter/fold whose callback order escapes (handlers, sends, \
         list construction) — hash-bucket order is not deterministic";
      allowed_in = [];
    };
    {
      name = "unseeded-random";
      summary = "ambient Random breaks replay; draw from lib/dsim's seeded Rng";
      allowed_in = [];
    };
    {
      name = "phys-equality";
      summary =
        "physical equality (==/!=) is representation-dependent; sanctioned \
         sentinel checks must be annotated";
      allowed_in = [];
    };
    {
      name = "exn-swallow";
      summary = "`with _ ->` discards the exception it caught";
      allowed_in = [];
    };
    {
      name = "domain-hygiene";
      summary =
        "Domain.spawn/self/join outside Mc.Pool bypasses the deterministic \
         merge";
      allowed_in = [ "lib/mc/pool.ml" ];
    };
    {
      name = "hotpath-alloc";
      summary =
        "a [@ctslint.hotpath] function (or a callee on its certified call \
         graph) allocates: closures, tuples/records/variants, partial \
         application, boxed float/int64 escapes, or calls out of the \
         certified set";
      allowed_in = [];
    };
    {
      name = "domain-unsafe";
      summary =
        "module-level mutable state reachable from Mc.Pool worker code \
         unless domain-local (DLS) or lock-protected";
      allowed_in = [];
    };
    {
      name = "bad-suppression";
      summary =
        "[@ctslint.allow] with a missing reason, malformed payload, or \
         unknown rule name; any other unknown [@ctslint.*] annotation";
      allowed_in = [];
    };
    {
      name = "unused-allow";
      summary =
        "[@ctslint.allow] that suppresses nothing";
      allowed_in = [];
    };
  ]

let known name = List.exists (fun r -> String.equal r.name name) all
let find name = List.find (fun r -> String.equal r.name name) all

(* Path fragments use '/' regardless of platform; [file] is the source
   path the compiler recorded (build-context-relative). *)
let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let exempt rule ~file =
  List.exists (fun frag -> contains_substring ~sub:frag file) rule.allowed_in

(* ------------------------------------------------------------------ *)
(* Identifier classification                                           *)

(* [matches_suffix ~path pat] — does the dotted path end with the dotted
   pattern?  ["Mc"; "Explore"; "wall"] matches "Explore.wall".  Paths
   arrive with module aliases already resolved (Typed_facts), so
   [module H = Hashtbl] cannot hide an [H.iter]. *)
let matches_suffix ~path pat =
  let pat = String.split_on_char '.' pat in
  let np = List.length path and nq = List.length pat in
  np >= nq
  &&
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  List.equal String.equal (drop (np - nq) path) pat

(* Real time and the host runtime: every member of these modules, plus
   the idents below.  Calling a project wrapper around the monotonic
   clock is a real-time read too, and must be just as visible. *)
let runtime_modules = [ "Unix"; "UnixLabels"; "Thread" ]

let wall_clock_idents =
  [
    "Sys.time";
    "Monotonic_clock.now";
    "Explore.wall";
    "Explore.cpu";
    "Attrib.now_ns";
    "input_line";
    "read_line";
    "read_int";
    "read_int_opt";
    "read_float";
    "read_float_opt";
  ]

let domain_idents = [ "Domain.spawn"; "Domain.self"; "Domain.join" ]

type classified =
  | Clean
  | Wall_clock of string
  | Hash_iter
  | Hash_fold
  | Random_use of string
  | Phys_eq of string
  | Domain_use of string

let classify path =
  match path with
  | [ ("==" | "!=") ] -> Phys_eq (List.hd path)
  | "Random" :: _ :: _ -> Random_use (String.concat "." path)
  | m :: _ :: _ when List.mem m runtime_modules ->
      Wall_clock (String.concat "." path)
  | _ ->
      if matches_suffix ~path "Hashtbl.iter" then Hash_iter
      else if matches_suffix ~path "Hashtbl.fold" then Hash_fold
      else if
        List.exists (fun p -> matches_suffix ~path p) wall_clock_idents
      then Wall_clock (String.concat "." path)
      else if List.exists (fun p -> matches_suffix ~path p) domain_idents
      then Domain_use (String.concat "." path)
      else Clean

(* Order-restoring consumers: a [Hashtbl.fold] whose result feeds one of
   these directly is pure aggregation — the hash order is erased before
   it can escape. *)
let sort_idents =
  [ "List.sort"; "List.stable_sort"; "List.fast_sort"; "List.sort_uniq" ]

let is_sort_path path =
  List.exists (fun p -> matches_suffix ~path p) sort_idents

(* ------------------------------------------------------------------ *)
(* Policy tables for hotpath-alloc and domain-unsafe.  Paths here are
   the *normalized* dotted names the walk produces: "Dsim__Event_queue"
   becomes "Dsim.Event_queue", and a leading "Stdlib." is stripped, so
   "Stdlib.Array.make" and a direct "Array.make" compare equal. *)

let normalize_path name =
  let b = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  let s = Buffer.contents b in
  let strip pre s =
    let lp = String.length pre in
    if String.length s > lp && String.sub s 0 lp = pre then
      String.sub s lp (String.length s - lp)
    else s
  in
  strip "Stdlib." (strip "Dune.exe." s)

(* Compiler primitives ("%"-externals) compile to inline code and are
   allocation-free, with the exceptions below.  Boxed-result primitives
   (float / int64 arithmetic, bigarray reads of boxed kinds) are still
   fine: the compiler unboxes them locally, and the separate escape
   checks in Typed_check flag the cases where a boxed value leaves the
   function.  Non-"%" externals are C stubs; those allocate unless
   whitelisted. *)
let allocating_prims =
  [
    "%makemutable" (* ref *);
    "%lazy_force";
    "%obj_dup";
    "%apply" (* @@: applies an arbitrary function *);
    "%revapply" (* |> *);
  ]

let nonalloc_c_stubs =
  [
    "caml_int_compare";
    "caml_int64_compare";
    "caml_float_compare";
    "caml_string_compare" (* compares in place; no allocation *);
  ]

let prim_allocates name =
  if String.length name > 0 && name.[0] = '%' then
    List.mem name allocating_prims
  else not (List.mem name nonalloc_c_stubs)

(* Non-primitive functions sanctioned inside certified hot paths.
   [invalid_arg]/[failwith] allocate their exception, but only on the
   raising path — the guard that never fires in a measured run.  A
   hotpath function whose *normal* path calls these is still flagged:
   the call's result type is 'a, so it can only sit in tail/guard
   position. *)
let cold_error_paths = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ]

let is_cold_error path = List.mem (normalize_path path) cold_error_paths

(* --- domain-unsafe ------------------------------------------------- *)

(* Constructors whose module-level result is shared mutable state. *)
let mutable_ctor_paths =
  [
    "Hashtbl.create";
    "Array.make";
    "Array.init";
    "Array.create_float";
    "Bytes.create";
    "Bytes.make";
    "Buffer.create";
    "Queue.create";
    "Stack.create";
  ]

(* Constructors that are safe to share: domain-local storage, locks,
   atomics, and lock-like coordination primitives. *)
let safe_ctor_paths =
  [
    "Domain.DLS.new_key";
    "Mutex.create";
    "Atomic.make";
    "Condition.create";
    "Semaphore.Counting.make";
    "Semaphore.Binary.make";
  ]

let is_mutable_ctor path =
  List.mem (normalize_path path) mutable_ctor_paths

let is_safe_ctor path = List.mem (normalize_path path) safe_ctor_paths

(* Files whose functions run on pool worker domains: every function they
   define is a reachability root for the domain-unsafe analysis (worker
   task closures live in this file, and the facts of nested closures are
   attributed to their enclosing top-level binding). *)
let domain_root_files = [ "lib/mc/pool.ml" ]

let is_domain_root_file file =
  List.exists (fun frag -> contains_substring ~sub:frag file)
    domain_root_files
