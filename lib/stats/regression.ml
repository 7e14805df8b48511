type fit = { slope : float; intercept : float; r2 : float }

let fit points =
  let n = List.length points in
  if n < 2 then invalid_arg "Regression.fit: need at least 2 points";
  let nf = float_of_int n in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0. points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0. points in
  let mx = sx /. nf and my = sy /. nf in
  let sxx = List.fold_left (fun a (x, _) -> a +. ((x -. mx) ** 2.)) 0. points in
  let syy = List.fold_left (fun a (_, y) -> a +. ((y -. my) ** 2.)) 0. points in
  let sxy =
    List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0. points
  in
  if sxx = 0. then invalid_arg "Regression.fit: all x equal";
  let slope = sxy /. sxx in
  let intercept = my -. (slope *. mx) in
  let r2 = if syy = 0. then 1. else sxy *. sxy /. (sxx *. syy) in
  { slope; intercept; r2 }
