type t = int
type span = int

let epoch = 0
let of_ns n = n
let to_ns t = t
let of_us u = u * 1_000
let to_us t = t / 1_000
let of_ms m = m * 1_000_000
let of_sec s = s * 1_000_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let to_sec_f t = float_of_int t /. 1e9
let add t s = t + s
let sub t s = t - s
let diff a b = a - b
let compare = Int.compare
let equal = Int.equal
let ( <= ) (a : int) b = a <= b
let ( < ) (a : int) b = a < b
let ( >= ) (a : int) b = a >= b
let ( > ) (a : int) b = a > b
let min = Int.min
let max = Int.max

let pp ppf t =
  let sign, t = if Stdlib.( < ) t 0 then ("-", -t) else ("", t) in
  Format.fprintf ppf "%s%d.%06ds" sign (t / 1_000_000_000)
    (t mod 1_000_000_000 / 1_000)

let truncate_to g t =
  if Stdlib.( <= ) g 0 then invalid_arg "Time.truncate_to: granularity <= 0";
  t - (((t mod g) + g) mod g)

module Span = struct
  type nonrec t = span

  let zero = 0
  let of_ns n = n
  let to_ns s = s
  let of_us u = u * 1_000
  let to_us s = s / 1_000
  let of_ms m = m * 1_000_000
  let of_sec s = s * 1_000_000_000
  let of_sec_f = of_sec_f
  let to_sec_f = to_sec_f
  let add = ( + )
  let sub = ( - )
  let neg s = -s
  let abs = Stdlib.abs
  let scale f s = int_of_float (Float.round (f *. float_of_int s))
  let divide s n = s / n
  let compare = Int.compare
  let equal = Int.equal
  let ( <= ) (a : int) b = a <= b
  let ( < ) (a : int) b = a < b
  let ( >= ) (a : int) b = a >= b
  let ( > ) (a : int) b = a > b
  let is_negative s = Stdlib.( < ) s 0
  let pp = pp
end
