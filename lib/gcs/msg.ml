type body = ..

type header = {
  msg_type : string;
  src_grp : Group_id.t;
  dst_grp : Group_id.t;
  conn_id : int;
  msg_seq : int;
}

type t = { header : header; body : body }

type id = { i_src : Group_id.t; i_dst : Group_id.t; i_conn : int; i_seq : int }

let make ~msg_type ~src_grp ~dst_grp ~conn_id ~msg_seq body =
  { header = { msg_type; src_grp; dst_grp; conn_id; msg_seq }; body }

let id t =
  {
    i_src = t.header.src_grp;
    i_dst = t.header.dst_grp;
    i_conn = t.header.conn_id;
    i_seq = t.header.msg_seq;
  }
