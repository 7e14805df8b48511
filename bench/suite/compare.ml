(* `ctsbench compare A/ B/`: two sets of result files, A the parent and B
   the change, paired by (workload, seed, trace).  For every (workload,
   metric) it prints each side's median and quartiles, B's median as a
   ratio of A's (the base), the pair wins, and a verdict:

   - better: B wins at least 9 of every 10 pairs (ties count for
     neither), there are at least 10 pairs, and the medians differ by
     more than A's interquartile range;
   - worse: an end-to-end metric whose median moved the wrong way by
     more than its bound in BENCHMARK.json; a per-layer metric (no
     bound) that loses by the same rule a gain must win by;
   - unresolved: neither, and an end-to-end metric's spread on either
     side is wider than its bound (unless every B run beats every A run);
   - same: everything else.

   Both sides must have measured for the same number of seconds. *)

type decl = { better : Catalog.better; bound : float option }

type run = {
  workload : string;
  seed : int;
  trace : int;
  seconds : float;  (** length of the measured phase *)
  values : (string * (float * string)) list;  (** name -> value, unit *)
}

let declarations path =
  let j = Json.read_file path in
  let entries key =
    match Json.member key j with
    | Some (Json.Arr l) ->
        List.filter_map
          (fun e ->
            match (Json.member "name" e, Json.member "better" e) with
            | Some (Json.Str name), Some (Json.Str b) ->
                Option.map
                  (fun better ->
                    let bound =
                      match Json.member "bound" e with
                      | Some (Json.Num f) -> Some f
                      | _ -> None
                    in
                    (name, { better; bound }))
                  (Catalog.better_of_string b)
            | _ -> None)
          l
    | _ -> []
  in
  entries "end_to_end" @ entries "per_layer"

let read_run path =
  let j = Json.read_file path in
  let str k = match Json.member k j with Some (Json.Str s) -> s | _ -> "" in
  let num k = match Json.member k j with Some (Json.Num f) -> f | _ -> 0. in
  let int k = int_of_float (num k) in
  let values =
    match Json.member "metrics" j with
    | Some (Json.Obj kv) ->
        List.filter_map
          (fun (name, m) ->
            match (Json.member "value" m, Json.member "unit" m) with
            | Some (Json.Num v), Some (Json.Str u) -> Some (name, (v, u))
            | _ -> None)
          kv
    | _ -> []
  in
  {
    workload = str "workload";
    seed = int "seed";
    trace = int "trace";
    seconds = num "seconds";
    values;
  }

let read_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.filter_map (fun f ->
         match read_run (Filename.concat dir f) with
         | r when r.workload <> "" -> Some r
         | _ -> None
         | exception Json.Parse_error _ -> None)

(* Python's statistics.quantiles(xs, n=4) (the "exclusive" method). *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [pairs]: (a, b) values of one metric, same workload and seed. *)
let judge decl pairs =
  let xs = List.map fst pairs and ys = List.map snd pairs in
  let q1a, ma, q3a = quartiles xs and q1b, mb, q3b = quartiles ys in
  let iqr_a = q3a -. q1a in
  let improves a b =
    match decl.better with Catalog.Lower -> b < a | Catalog.Higher -> b > a
  in
  let wins = List.length (List.filter (fun (a, b) -> improves a b) pairs) in
  let losses = List.length (List.filter (fun (a, b) -> improves b a) pairs) in
  let n = List.length pairs in
  let decisive k = n >= 10 && 10 * k >= 9 * n in
  let gap = Float.abs (mb -. ma) > iqr_a in
  let verdict =
    if decisive wins && gap && improves ma mb then Better
    else
      match decl.bound with
      | Some bound ->
          let worse_by =
            match decl.better with
            | Catalog.Lower -> mb -. ma
            | Catalog.Higher -> ma -. mb
          in
          let spread q1 m q3 = m <> 0. && (q3 -. q1) /. Float.abs m > bound in
          let all_b_better =
            List.for_all (fun a -> List.for_all (fun b -> improves a b) ys) xs
          in
          if worse_by > bound *. Float.abs ma then Worse
          else if
            (spread q1a ma q3a || spread q1b mb q3b) && not all_b_better
          then Unresolved
          else Same
      | None -> if decisive losses && gap && improves mb ma then Worse else Same
  in
  (verdict, (q1a, ma, q3a), (q1b, mb, q3b), wins, n)

let run ~bench dir_a dir_b =
  let decls = declarations bench in
  let a = read_dir dir_a and b = read_dir dir_b in
  let key r = (r.workload, r.trace) in
  let keys =
    List.sort_uniq compare (List.map key a)
    |> List.filter (fun k -> List.exists (fun r -> key r = k) b)
  in
  let lengths =
    List.sort_uniq Float.compare (List.map (fun r -> r.seconds) (a @ b))
  in
  if List.length lengths > 1 then begin
    prerr_endline
      ("compare: the runs measured for different lengths ("
      ^ String.concat ", " (List.map (Printf.sprintf "%g s") lengths)
      ^ "); both sides need one run length");
    2
  end
  else if keys = [] then begin
    prerr_endline "compare: no (workload, trace) present on both sides";
    2
  end
  else begin
    let worse_e2e = ref 0 in
    Printf.printf "%-13s %-5s %-36s %-6s %-30s %-30s %-26s %-7s %s\n"
      "workload" "trace" "metric" "unit" "A median [q1, q3]"
      "B median [q1, q3]" "B/A (base A median)" "B wins" "verdict";
    List.iter
      (fun ((workload, trace) as k) ->
        let pairs =
          List.filter_map
            (fun ra ->
              if key ra <> k then None
              else
                List.find_opt (fun rb -> key rb = k && rb.seed = ra.seed) b
                |> Option.map (fun rb -> (ra, rb)))
            a
        in
        List.iter
          (fun (name, decl) ->
            let values =
              List.filter_map
                (fun (ra, rb) ->
                  match
                    (List.assoc_opt name ra.values, List.assoc_opt name rb.values)
                  with
                  | Some (va, u), Some (vb, _) -> Some (va, vb, u)
                  | _ -> None)
                pairs
            in
            match values with
            | [] -> ()
            | _ when List.for_all (fun (x, y, _) -> x = 0. && y = 0.) values ->
                () (* a metric this workload does not exercise *)
            | (_, _, unit_) :: _ ->
                let v, (q1a, ma, q3a), (q1b, mb, q3b), wins, n =
                  judge decl (List.map (fun (x, y, _) -> (x, y)) values)
                in
                if v = Worse && decl.bound <> None then incr worse_e2e;
                let ratio =
                  if ma = 0. then "n/a (base 0)"
                  else Printf.sprintf "%.4f (base %.6g)" (mb /. ma) ma
                in
                Printf.printf
                  "%-13s %-5d %-36s %-6s %-30s %-30s %-26s %-7s %s\n" workload
                  trace name unit_
                  (Printf.sprintf "%.6g [%.6g, %.6g]" ma q1a q3a)
                  (Printf.sprintf "%.6g [%.6g, %.6g]" mb q1b q3b)
                  ratio
                  (Printf.sprintf "%d/%d" wins n)
                  (verdict_name v))
          decls)
      keys;
    if !worse_e2e > 0 then 1 else 0
  end
