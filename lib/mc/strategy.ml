module Span = Dsim.Time.Span

type t =
  | Random of { delay_prob : float; reorder_prob : float }
  | Bounded of { depth : int }

let default_random = Random { delay_prob = 0.01; reorder_prob = 0.25 }

let pp ppf = function
  | Random { delay_prob; reorder_prob } ->
      Format.fprintf ppf "random (delay %.3g, reorder %.3g)" delay_prob
        reorder_prob
  | Bounded { depth } -> Format.fprintf ppf "bounded-reorder (depth %d)" depth

let of_string s =
  match String.lowercase_ascii s with
  | "random" -> Some default_random
  | "bounded" -> Some (Bounded { depth = 1 })
  | _ -> None

(* Mix a run index into the base seed (splitmix-style) so consecutive runs
   get uncorrelated engine and walk seeds. *)
let derive base i salt =
  let open Int64 in
  let z = add base (mul (of_int ((i * 2) + salt + 1)) 0x9E3779B97F4A7C15L) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  logxor z (shift_right_logical z 27)

(* The [i]-th run of the seed sweep + random walk: a fresh cluster seed
   and a fresh stream of random delay/reorder decisions, as a pure
   function of [i] — so the run space can be partitioned across domains
   (Pool) in any order. *)
let random_run ~base_seed ~quantum ~delay_prob ~reorder_prob i =
  let harness_seed = derive base_seed i 0 in
  let walk_seed = derive base_seed i 1 in
  ( harness_seed,
    {
      Controller.forced = [];
      random = Some { Controller.seed = walk_seed; delay_prob; reorder_prob };
      quantum;
    } )

(* Bounded-reorder exhaustive search: starting from the default schedule
   on a fixed seed, enumerate every schedule that deviates in at most
   [depth] places.  Each completed run reports its branching structure
   (packet count + tie steps); children extend a parent's trace with one
   later deviation.  Packet delays come first — they displace whole
   protocol exchanges and are the higher-yield perturbation. *)
let bounded_children ~quantum ~(parent : Controller.spec)
    ~(info : World.info) =
  let parent = parent.Controller.forced in
  let last_packet, last_step =
    List.fold_left
      (fun (p, s) d ->
        match d with
        | Schedule.Delay { packet } -> (max p packet, s)
        | Schedule.Reorder { step; _ } -> (p, max s step))
      (-1, -1) parent
  in
  let delays =
    List.init info.World.packets Fun.id
    |> List.filter (fun p -> p > last_packet)
    |> List.map (fun packet -> parent @ [ Schedule.Delay { packet } ])
  in
  let reorders =
    info.World.ties
    |> List.filter (fun (step, _) -> step > last_step)
    |> List.concat_map (fun (step, ready) ->
           List.init (ready - 1) (fun j ->
               parent @ [ Schedule.Reorder { step; take = j + 1 } ]))
  in
  List.map
    (fun forced -> { Controller.forced; random = None; quantum })
    (delays @ reorders)
