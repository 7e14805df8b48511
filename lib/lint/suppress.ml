(* Explicit, auditable suppression of lint findings.

   A finding is silenced only by an attribute naming the rule *and* a
   reason:

     (c != t.nil_cell) [@ctslint.allow "phys-equality" "pool sentinel"]

   scoped to the annotated expression (or [let] binding, via
   [@@ctslint.allow ...]); or for a whole file, wherever in the file it
   appears:

     [@@@ctslint.allow "wall-clock" "benchmarks time real elapsed time"]

   A suppression without a reason, with a malformed payload, or naming an
   unknown rule is itself a finding ([bad-suppression]), and a suppression
   that silences nothing is flagged too ([unused-allow]) — so the set
   printed by [ctslint --list-suppressions] is exactly the set of live,
   justified exceptions to the determinism contract.

   A sibling annotation rides the same parser: [@@ctslint.hotpath] (no
   payload) marks a function whose transitive call graph must be
   allocation-free. *)

type scope = File | Scoped

type t = {
  s_file : string;
  s_line : int;
  s_rule : string;
  s_reason : string;
  s_scope : scope;
  mutable s_used : bool;
}

(* What one attribute means to the lint. *)
type parsed =
  | Other  (* not a ctslint annotation *)
  | Hotpath
  | Allow of { rule : string; reason : string }
  | Bad of string  (* a bad-suppression, with the complaint *)

let string_const (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _)) -> Some s
  | _ -> None

let malformed = Bad "expected two string literals: rule and reason"

(* Allow payloads accepted: ["rule" "reason"] (juxtaposition) or a tuple
   ["rule", "reason"]; a lone ["rule"] is rejected for the missing
   reason, with a pointed message. *)
let parse_allow e =
  let pair a b =
    match (string_const a, string_const b) with
    | Some rule, Some reason -> `Pair (rule, reason)
    | _ -> `Malformed
  in
  let shape =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_apply (f, [ (Asttypes.Nolabel, arg) ]) -> pair f arg
    | Parsetree.Pexp_tuple [ a; b ] -> pair a b
    | _ -> (
        match string_const e with
        | Some rule -> `Pair (rule, "")
        | None -> `Malformed)
  in
  match shape with
  | `Malformed -> malformed
  | `Pair (rule, _) when not (Rules.known rule) ->
      Bad (Printf.sprintf "unknown rule %S" rule)
  | `Pair (rule, "") ->
      Bad
        (Printf.sprintf
           "suppression of %S carries no reason; every exception to the \
            determinism contract must say why"
           rule)
  | `Pair (rule, reason) -> Allow { rule; reason }

let parse (attr : Parsetree.attribute) =
  let expr =
    match attr.Parsetree.attr_payload with
    | Parsetree.PStr [] -> `Empty
    | Parsetree.PStr
        [ { Parsetree.pstr_desc = Parsetree.Pstr_eval (e, _); _ } ] ->
        `Expr e
    | _ -> `Other
  in
  match (attr.Parsetree.attr_name.Location.txt, expr) with
  | "ctslint.hotpath", `Empty -> Hotpath
  | "ctslint.hotpath", _ -> Bad "[@ctslint.hotpath] takes no payload"
  | "ctslint.allow", `Expr e -> parse_allow e
  | "ctslint.allow", _ -> malformed
  | name, _ when String.starts_with ~prefix:"ctslint." name ->
      (* a typo must not pass silently for an annotation *)
      Bad (Printf.sprintf "unknown ctslint annotation %S" name)
  | _ -> Other

let to_string t =
  Printf.sprintf "%s:%d: allow %s — %s%s" t.s_file t.s_line t.s_rule
    t.s_reason
    (match t.s_scope with File -> " (file-wide)" | Scoped -> "")
