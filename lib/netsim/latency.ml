type t =
  | Constant of Dsim.Time.Span.t
  | Uniform of { lo : Dsim.Time.Span.t; hi : Dsim.Time.Span.t }
  | Gaussian of { mu : Dsim.Time.Span.t; sigma : Dsim.Time.Span.t }
  | Mixture of (float * t) list

let default_wire = Dsim.Time.Span.of_us 26

let calibrated ~wire =
  Mixture
    [
      (0.97, Gaussian { mu = wire; sigma = Dsim.Time.Span.of_us 3 });
      ( 0.03,
        Gaussian
          {
            mu = Dsim.Time.Span.add wire (Dsim.Time.Span.of_us 150);
            sigma = Dsim.Time.Span.of_us 60;
          } );
    ]

let default_wan_wire = Dsim.Time.Span.of_us 350

let wan ~wire =
  (* Inter-site links: a wider bulk than the quiet-LAN model (routers and
     queueing dominate crystal jitter) and a heavier, longer stall tail. *)
  Mixture
    [
      ( 0.93,
        Gaussian
          { mu = wire; sigma = Dsim.Time.Span.scale 0.05 wire } );
      ( 0.07,
        Gaussian
          {
            mu = Dsim.Time.Span.add wire (Dsim.Time.Span.scale 3.0 wire);
            sigma = Dsim.Time.Span.scale 0.8 wire;
          } );
    ]

let floor_lat = Dsim.Time.Span.of_us 1

let rec sample rng t =
  let v =
    match t with
    | Constant d -> d
    | Uniform { lo; hi } ->
        Dsim.Time.Span.of_ns
          (Dsim.Rng.int_range rng (Dsim.Time.Span.to_ns lo)
             (Dsim.Time.Span.to_ns hi))
    | Gaussian { mu; sigma } ->
        let d =
          Dsim.Rng.gaussian rng
            ~mu:(float_of_int (Dsim.Time.Span.to_ns mu))
            ~sigma:(float_of_int (Dsim.Time.Span.to_ns sigma))
        in
        Dsim.Time.Span.of_ns (int_of_float d)
    | Mixture [] -> invalid_arg "Latency.sample: empty mixture"
    | Mixture components ->
        let total = List.fold_left (fun a (w, _) -> a +. w) 0. components in
        let draw = Dsim.Rng.float rng total in
        let rec pick acc = function
          | [] -> assert false
          | [ (_, m) ] -> m
          | (w, m) :: rest -> if draw < acc +. w then m else pick (acc +. w) rest
        in
        sample rng (pick 0. components)
  in
  Dsim.Time.Span.(if v < floor_lat then floor_lat else v)

(* The per-packet form: [compile] does once per network what [sample]
   does per draw — folding the mixture's total, unpacking the weights
   and converting the Gaussian parameters to floats — so a draw walks
   flat float arrays.  Draws are identical to [sample]'s: the same total
   (the same left fold), the same [acc +. w] pick with the last component
   taken untested, u1 drawn before u2, and [Rng.gaussian]'s Box-Muller
   expression.  Shapes other than a constant, a Gaussian or a mixture of
   Gaussians keep [sample]. *)
type compiled =
  | Fixed of Dsim.Time.Span.t (* already floored *)
  | Gauss of { mu : float; sigma : float }
  | Gauss_mix of {
      total : float;
      weights : float array;
      mus : float array;
      sigmas : float array;
    }
  | Model of t

let floor_ns = Dsim.Time.Span.to_ns floor_lat

let ns_f d = float_of_int (Dsim.Time.Span.to_ns d)

let compile = function
  | Constant d -> Fixed Dsim.Time.Span.(if d < floor_lat then floor_lat else d)
  | Gaussian { mu; sigma } -> Gauss { mu = ns_f mu; sigma = ns_f sigma }
  | Mixture components as m -> (
      let gaussians =
        List.filter_map
          (function
            | w, Gaussian { mu; sigma } -> Some (w, ns_f mu, ns_f sigma)
            | _ -> None)
          components
      in
      match gaussians with
      | _ :: _ when List.compare_lengths gaussians components = 0 ->
          let column f = Array.of_list (List.map f gaussians) in
          Gauss_mix
            {
              total = List.fold_left (fun a (w, _, _) -> a +. w) 0. gaussians;
              weights = column (fun (w, _, _) -> w);
              mus = column (fun (_, mu, _) -> mu);
              sigmas = column (fun (_, _, sigma) -> sigma);
            }
      | _ -> Model m)
  | Uniform _ as m -> Model m

let[@inline] gauss_ns rng mu sigma =
  let u1 = 1.0 -. Dsim.Rng.float rng 1.0 in
  let u2 = Dsim.Rng.float rng 1.0 in
  let ns =
    int_of_float
      (mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)))
  in
  Dsim.Time.Span.of_ns (if ns < floor_ns then floor_ns else ns)

let draw rng = function
  | Fixed d -> d
  | Gauss { mu; sigma } -> gauss_ns rng mu sigma
  | Gauss_mix { total; weights; mus; sigmas } ->
      let u = Dsim.Rng.float rng total in
      let last = Array.length weights - 1 in
      let i = ref 0 and acc = ref 0. in
      while !i < last && not (u < !acc +. Array.unsafe_get weights !i) do
        acc := !acc +. Array.unsafe_get weights !i;
        incr i
      done;
      gauss_ns rng (Array.unsafe_get mus !i) (Array.unsafe_get sigmas !i)
  | Model m -> sample rng m
