(* Wire messages between primary and standby.

   A batch is an LSN range of the primary's durable log, not a copy of
   its records: the standby reads [first, upto) from the primary's log
   when its own device write completes (an entry below the durable LSN
   never changes; see Durability.Log).  The channel models cost by size,
   so each message carries or computes its modeled on-wire bytes: a batch
   is its records' on-device sizes plus a small header, control messages
   are header-only. *)

type to_replica =
  | Batch of {
      first : int;  (* LSN of the first record *)
      upto : int;  (* one past the last record's LSN *)
      bytes : int;  (* the records' modeled bytes, header excluded *)
      durable : int;  (* primary durable LSN when sent *)
      sent_at : int;  (* primary virtual cycles at send *)
    }
  | Heartbeat of { durable : int }

type to_primary =
  | Ack of { persisted : int; applied : int }
  | Nak of { from : int }  (* gap: re-ship from this LSN *)

let header_bytes = 32
let control_bytes = 16

let to_replica_bytes = function
  | Batch b -> header_bytes + b.bytes
  | Heartbeat _ -> control_bytes

let to_primary_bytes = function Ack _ | Nak _ -> control_bytes
