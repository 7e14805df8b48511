module Nid = Netsim.Node_id

(* Slot 0 holds the cardinality; id [i] is bit [i mod 62] of slot
   [1 + i / 62].  62 bits per word keep every word non-negative.  Arrays
   are not trimmed: words past an array's end read as zero.  The empty
   set is the empty array, the one value shared between callers. *)
type t = int array
type countdown = int array

let word_bits = 62
let empty = [||]
let cardinal (a : t) = if Array.length a = 0 then 0 else a.(0)
let is_empty a = cardinal a = 0
let slot i = 1 + (i / word_bits)
let bit i = 1 lsl (i mod word_bits)
let word (a : t) w = if w < Array.length a then a.(w) else 0

(* Branch-free population count of a 62-bit word. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  ((x * 0x0101_0101_0101_0101) lsr 56) land 0x7F

let recount (a : int array) =
  if Array.length a > 0 then begin
    let n = ref 0 in
    for w = 1 to Array.length a - 1 do
      n := !n + popcount a.(w)
    done;
    a.(0) <- !n
  end;
  a

let mem id a =
  let i = Nid.to_int id in
  word a (slot i) land bit i <> 0

let of_list ids =
  let top = List.fold_left (fun m id -> Int.max m (Nid.to_int id)) (-1) ids in
  if top < 0 then empty
  else begin
    let a = Array.make (slot top + 1) 0 in
    List.iter
      (fun id ->
        let i = Nid.to_int id in
        a.(slot i) <- a.(slot i) lor bit i)
      ids;
    recount a
  end

let singleton id = of_list [ id ]

let subset a b =
  cardinal a <= cardinal b
  &&
  let n = Array.length a and w = ref 1 in
  while !w < n && a.(!w) land lnot (word b !w) = 0 do
    incr w
  done;
  !w >= n

let union a b =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let r = Array.copy a in
  for w = 1 to Array.length b - 1 do
    r.(w) <- r.(w) lor b.(w)
  done;
  recount r

let add id a = if mem id a then a else union a (singleton id)

let diff a b =
  recount
    (Array.mapi (fun w x -> if w = 0 then 0 else x land lnot (word b w)) a)

let remove id a = if mem id a then diff a (singleton id) else a

let diff_cardinal a b =
  let n = ref 0 in
  for w = 1 to Array.length a - 1 do
    n := !n + popcount (a.(w) land lnot (word b w))
  done;
  !n

(* Ascending: words from the top down, bits from the top down, consed. *)
let elements a =
  let acc = ref [] in
  for w = Array.length a - 1 downto 1 do
    let x = a.(w) in
    if x <> 0 then
      for b = word_bits - 1 downto 0 do
        if x land (1 lsl b) <> 0 then
          acc := Nid.of_int (((w - 1) * word_bits) + b) :: !acc
      done
  done;
  !acc

let filter p a = of_list (List.filter p (elements a))
let min_elt a =
  let n = Array.length a and w = ref 1 in
  while !w < n && a.(!w) = 0 do
    incr w
  done;
  if !w >= n then raise Not_found;
  let x = a.(!w) and b = ref 0 in
  while x land (1 lsl !b) = 0 do
    incr b
  done;
  Nid.of_int (((!w - 1) * word_bits) + !b)

let pp ppf a =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Nid.pp)
    (elements a)

let countdown ids = of_list ids

let strike (c : countdown) id =
  let i = Nid.to_int id in
  let w = slot i in
  if word c w land bit i <> 0 then begin
    c.(w) <- c.(w) land lnot (bit i);
    c.(0) <- c.(0) - 1
  end

let remaining = cardinal
