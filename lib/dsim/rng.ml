(* State lives in a one-element int64 bigarray rather than a mutable
   record field: bigarray loads/stores of int64 compile to direct
   unboxed memory accesses, so the fused [bits] below runs
   allocation-free.  A [mutable state : int64] field would box a fresh
   Int64 (plus a write barrier) on every draw — measurable on the model
   checker's hot path, which draws a few hundred times per schedule. *)
type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed =
  let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 1 in
  Bigarray.Array1.unsafe_set a 0 seed;
  a

let state (t : t) = Bigarray.Array1.unsafe_get t 0
let set_state (t : t) s = Bigarray.Array1.unsafe_set t 0 s

let int64 t =
  let s = Int64.add (state t) golden_gamma in
  set_state t s;
  mix64 s

let split t = create (mix64 (int64 t))
let copy t = create (state t)

(* [int64] followed by the top-bit drop, with every intermediate kept in
   a local so the compiler's let-unboxing leaves no boxed Int64 behind.
   Draw-for-draw identical to [Int64.to_int (shift_right_logical (int64
   t) 2)]. *)
let bits (t : t) =
  let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
  Bigarray.Array1.unsafe_set t 0 s;
  let z =
    Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)
[@@ctslint.hotpath]

(* Rejection sampling keeps the draw exactly uniform.  Top-level so the
   rejection loop needs no closure. *)
let rec draw_below t limit lo n =
  let b = bits t in
  if b >= limit then draw_below t limit lo n else lo + (b mod n)

let int_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_range: lo > hi";
  let n = hi - lo + 1 in
  let limit = 0x3FFF_FFFF_FFFF_FFFF / n * n in
  draw_below t limit lo n

let float t x = float_of_int (bits t) /. 4.611686018427387904e18 *. x
let bool t = Int64.logand (int64 t) 1L = 1L

let choose t = function
  | [] -> invalid_arg "Rng.choose: empty list"
  | l -> List.nth l (int_range t 0 (List.length l - 1))

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 and u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
