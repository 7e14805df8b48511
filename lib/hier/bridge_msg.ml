(* Wire messages of the cross-shard bridge protocol (a star: the lowest
   live shard's gateway polls, the others offer, the poller agrees).

   Polls and agrees are broadcast and filtered by the receiver (shard
   indices are stable; gateway node ids are not, so addressing a message
   to "the gateway of shard s" by node id would break across failovers);
   an offer goes back to the polling gateway only.  Every constructor
   carries the sender's shard index so receivers can maintain per-shard
   liveness without a separate heartbeat. *)

type t =
  | Poll of { round : int; coord_shard : int }
      (* the coordinator opens a bridge round and solicits offers *)
  | Offer of { round : int; shard : int; time : Dsim.Time.t }
      (* a gateway's view of the global clock for the round — the max of
         its shard's group-clock estimate and the last agreed global
         value, so agreement can never regress while any holder of the
         previous value survives *)
  | Agree of { round : int; coord_shard : int; time : Dsim.Time.t }
      (* the agreed global group-clock value for the round *)

let sender_shard = function
  | Poll { coord_shard; _ } -> coord_shard
  | Offer { shard; _ } -> shard
  | Agree { coord_shard; _ } -> coord_shard

let round = function
  | Poll { round; _ } | Offer { round; _ } | Agree { round; _ } -> round
