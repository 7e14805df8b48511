(** The group clock's invariants.

    Encodes the paper's Section 3 correctness properties of the group
    clock as checks over an {!outcome} — the observations a harness run
    collected from every replica plus the services' own counters:

    - [monotone]: the group clock never runs backwards at any replica;
    - [agreement]: every replica adopts the same value for each round;
    - [single-synchronizer]: one winning CCS message per round, one
      send-or-suppress decision per replica per round, rounds strictly
      sequential;
    - [no-rollback]: zero roll-backs at every survivor, in particular
      across a failover.

    {!builtin} is the closed set every harness run is judged by; a test
    wanting another property checks it on the {!outcome} directly. *)

type observation = {
  replica : int;  (** node index in the harness cluster *)
  round : int;  (** CCS round number, 1-based *)
  gc : Dsim.Time.t;  (** group clock value returned *)
  pc : Dsim.Time.t;  (** physical clock just before the call *)
  at : Dsim.Time.t;  (** simulation time when the round completed *)
}

type outcome = {
  replicas : int;
  rounds : int;  (** rounds requested per replica *)
  observations : observation list array;
      (** per replica, in completion order *)
  stats : Cts.Service.stats array;
  crashed : int option;  (** replica crashed mid-run, if any *)
  packet_log : string;
      (** rendered packet records of the run's stream, possibly empty *)
}

type t = {
  name : string;
  doc : string;
  check : outcome -> (unit, string) result;
}

val monotone : t
val agreement : t
val single_synchronizer : t
val no_rollback : t

val builtin : t list
(** [[monotone; agreement; single_synchronizer; no_rollback]]. *)

val check_all : outcome -> (string * string) list
(** All violations as [(invariant name, detail)], empty when the outcome
    satisfies every {!builtin} invariant. *)
