(** Totem wire messages.

    All protocol traffic is carried over the {!Netsim.Network} as values of
    ['a t] where ['a] is the upper layer's opaque payload type. *)

type 'a regular = {
  ring : Ring_id.t;
  seq : int;  (** position in the ring's total order, starting at 1 *)
  sender : Netsim.Node_id.t;
  payload : 'a;
}

type token = {
  ring : Ring_id.t;
  mutable token_seq : int;
      (** incremented on every forward; receivers discard stale tokens *)
  mutable seq : int;  (** highest sequence number broadcast on the ring *)
  mutable aru : int;  (** all-received-up-to *)
  mutable aru_id : Netsim.Node_id.t option;  (** who last lowered [aru] *)
  mutable rtr : int list;  (** outstanding retransmission requests *)
  mutable fcc : int;
      (** messages broadcast during the last rotation (flow control) *)
}

(** A member's view of the ring it sat on before the membership change,
    carried in [Join]/[Commit] so undelivered messages can be recovered. *)
type old_ring_info = {
  old_ring : Ring_id.t option;  (** [None] for a freshly started node *)
  high_seq : int;  (** highest sequence number it holds on that ring *)
  old_aru : int;  (** its all-received-up-to on that ring *)
}

type join = {
  j_sender : Netsim.Node_id.t;
  proc_set : Bits.t;  (** candidate members, incl. sender *)
  fail_set : Bits.t;  (** nodes the sender has given up on *)
  j_old : old_ring_info;
  max_gen : int;  (** highest ring generation the sender has seen *)
}

type commit = {
  new_ring : Ring_id.t;
  members : Netsim.Node_id.t list;  (** sorted by id *)
  member_old : (Netsim.Node_id.t * old_ring_info) list;
  recover : (Ring_id.t * (int * int)) list;
      (** per old ring: [(lo, hi)] sequence range to recover *)
}

type 'a t =
  | Regular of 'a regular
  | Token of token
  | Join of join
  | Commit of commit
  | Recovery_offer of {
      o_sender : Netsim.Node_id.t;
      new_ring : Ring_id.t;
      o_ring : Ring_id.t;
      held : int list;  (** seqs of [o_ring] the sender holds in range *)
    }
  | Recovery_request of {
      r_sender : Netsim.Node_id.t;
      new_ring : Ring_id.t;
      r_ring : Ring_id.t;
      wanted : int list;
    }
  | Recovery_done of {
      d_sender : Netsim.Node_id.t;
      new_ring : Ring_id.t;
      nudge : bool;
          (** [true] when re-announced by an already-operational node to
              help a straggler; operational nodes never respond to nudges
              (prevents echo storms between operational nodes) *)
    }
  | Presence of { p_sender : Netsim.Node_id.t; p_ring : Ring_id.t }
      (** Low-rate beacon broadcast by the ring representative so that
          healed partitions notice each other and remerge even when idle
          (foreign regular traffic triggers the same remerge faster). *)

val pp : Format.formatter -> 'a t -> unit
(** One-line rendering of the protocol fields (payloads elided), for traces
    and logs. *)

val copy_token : token -> token
(** Tokens are mutated in place by the holder; forwarding sends a copy so a
    retransmitted token is not retroactively modified. *)
