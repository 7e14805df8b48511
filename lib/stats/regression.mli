(** Ordinary least-squares line fit.

    Used to estimate the drift rate of the group clock relative to real time
    for the paper's Figure 6(c) and the drift-compensation ablation. *)

type fit = { slope : float; intercept : float; r2 : float }

val fit : (float * float) list -> fit
(** [fit points] fits [y = slope * x + intercept].  Raises
    [Invalid_argument] with fewer than 2 points or when all x are equal. *)
