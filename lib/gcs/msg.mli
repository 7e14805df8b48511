(** Application messages carried over the group communication system.

    Every message carries the paper's common fault-tolerant protocol header
    (§3.1): message type, source and destination group, connection
    identifier and sequence number.  [(src_grp, dst_grp, conn_id)] names a
    connection; [msg_seq] names a message within it; together they form the
    message identifier used for duplicate detection.

    The body is an extensible variant: each upper layer (RPC, the consistent
    time service, the replication infrastructure) declares its own
    constructors, so no serialization is needed inside the simulation. *)

type body = ..

type header = {
  msg_type : string;  (** e.g. ["REQUEST"], ["REPLY"], ["CCS"] *)
  src_grp : Group_id.t;
  dst_grp : Group_id.t;
  conn_id : int;
  msg_seq : int;
}

type t = { header : header; body : body }

type id = { i_src : Group_id.t; i_dst : Group_id.t; i_conn : int; i_seq : int }
(** The message identifier (header §3.1). *)

val make :
  msg_type:string ->
  src_grp:Group_id.t ->
  dst_grp:Group_id.t ->
  conn_id:int ->
  msg_seq:int ->
  body ->
  t

val id : t -> id
