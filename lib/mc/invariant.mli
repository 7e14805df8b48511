(** What one harness run hands its caller to judge.

    The paper's §3 properties are {!Obs.Check} properties over the run's
    record stream; the harness attaches a fresh check to every measured
    run, so an outcome carries that check's verdicts. *)

type outcome = {
  stats : Cts.Service.stats array;  (** per replica, at the end of the run *)
  verdicts : Obs.Check.verdict list;  (** the run's check, finished *)
  packet_log : string;
      (** rendered packet records of the run's stream, possibly empty *)
}

val check_all : outcome -> Obs.Check.verdict list
(** Every violated property, in first-raised order; empty when the run
    satisfies them all. *)
