type 'a regular = {
  ring : Ring_id.t;
  seq : int;
  sender : Netsim.Node_id.t;
  payload : 'a;
}

type token = {
  ring : Ring_id.t;
  mutable token_seq : int;
  mutable seq : int;
  mutable aru : int;
  mutable aru_id : Netsim.Node_id.t option;
  mutable rtr : int list;
  mutable fcc : int;
}

type old_ring_info = {
  old_ring : Ring_id.t option;
  high_seq : int;
  old_aru : int;
}

type join = {
  j_sender : Netsim.Node_id.t;
  proc_set : Bits.t;
  fail_set : Bits.t;
  j_old : old_ring_info;
  max_gen : int;
}

type commit = {
  new_ring : Ring_id.t;
  members : Netsim.Node_id.t list;
  member_old : (Netsim.Node_id.t * old_ring_info) list;
  recover : (Ring_id.t * (int * int)) list;
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
      held : int list;
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
    }
  | Presence of { p_sender : Netsim.Node_id.t; p_ring : Ring_id.t }

let pp ppf = function
  | Regular r ->
      Format.fprintf ppf "regular %a #%d from %a" Ring_id.pp r.ring r.seq
        Netsim.Node_id.pp r.sender
  | Token t ->
      Format.fprintf ppf "token %a ts=%d seq=%d aru=%d rtr=[%a]" Ring_id.pp
        t.ring t.token_seq t.seq t.aru
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ';')
           Format.pp_print_int)
        t.rtr
  | Join j ->
      Format.fprintf ppf "join from %a proc=%a fail=%a" Netsim.Node_id.pp
        j.j_sender Bits.pp j.proc_set Bits.pp j.fail_set
  | Commit c ->
      Format.fprintf ppf "commit %a members=[%a]" Ring_id.pp c.new_ring
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Netsim.Node_id.pp)
        c.members
  | Recovery_offer { o_sender; o_ring; held; _ } ->
      Format.fprintf ppf "recovery-offer from %a for %a (%d held)"
        Netsim.Node_id.pp o_sender Ring_id.pp o_ring (List.length held)
  | Recovery_request { r_sender; r_ring; wanted; _ } ->
      Format.fprintf ppf "recovery-request from %a for %a (%d wanted)"
        Netsim.Node_id.pp r_sender Ring_id.pp r_ring (List.length wanted)
  | Recovery_done { d_sender; nudge; _ } ->
      Format.fprintf ppf "recovery-done%s from %a"
        (if nudge then " (nudge)" else "")
        Netsim.Node_id.pp d_sender
  | Presence { p_sender; p_ring } ->
      Format.fprintf ppf "presence from %a on %a" Netsim.Node_id.pp p_sender
        Ring_id.pp p_ring

let copy_token t =
  {
    ring = t.ring;
    token_seq = t.token_seq;
    seq = t.seq;
    aru = t.aru;
    aru_id = t.aru_id;
    rtr = t.rtr;
    fcc = t.fcc;
  }
