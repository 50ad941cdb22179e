(* Wire messages between primary and standby.

   The channel models cost by size, so each message computes its modeled
   on-wire bytes: a batch is its records' on-device sizes plus a small
   header, control messages are header-only. *)

type to_replica =
  | Batch of {
      first : int;  (* LSN of the first record *)
      records : Durability.Log.record list;  (* contiguous, LSN order *)
      durable : int;  (* primary durable LSN when sent *)
      sent_at : int;  (* primary virtual cycles at send *)
    }
  | Heartbeat of { durable : int }

type to_primary =
  | Ack of { persisted : int; applied : int }
  | Nak of { from : int }  (* gap: re-ship from this LSN *)

let header_bytes = 32
let control_bytes = 16

let records_bytes records =
  List.fold_left
    (fun acc (r : Durability.Log.record) -> acc + r.Durability.Log.bytes)
    0 records

let to_replica_bytes = function
  | Batch b -> header_bytes + records_bytes b.records
  | Heartbeat _ -> control_bytes

let to_primary_bytes = function Ack _ | Nak _ -> control_bytes
