(** 2PC wire messages between shards.

    One {!Uintr.Channel} per directed shard pair carries these; the
    channel models cost by size, so each message computes its modeled
    on-wire bytes (mirroring {!Replication.Msg}).  A [Prepare] ships the
    remote write-set as logical operations ({!rop}) rather than raw
    versions — the participant re-executes them against its own engine
    partition, which keeps the message small and the participant's
    concurrency control honest. *)

(** A remote operation: the slice of a cross-shard transaction executed on
    a participant shard. *)
type rop =
  | Stock_deduct of { w : int; i : int; qty : int; remote : bool }
      (** NewOrder order line supplied by warehouse [w] (owned by the
          participant): deduct [qty] with the spec's +91 restock rule,
          bump ytd/order counters ([remote] bumps [remote_cnt]). *)
  | Customer_pay of { w : int; d : int; c : int; amount : float }
      (** Payment to a remote customer: balance −= amount, ytd_payment +=
          amount, payment_cnt += 1. *)

type t =
  | Prepare of { gid : int; origin : int; ops : rop list }
      (** Coordinator → participant: execute [ops], durably log a prepare
          record under global id [gid], vote. *)
  | Vote of { gid : int; shard : int; yes : bool }
      (** Participant → coordinator.  A yes vote promises the prepare is
          durable and its latches held until a decision arrives. *)
  | Commit of { gid : int; ts : int64 }
      (** Coordinator → participant, only after the decision record is
          durable ([ts] = the global decision timestamp). *)
  | Abort of { gid : int }
      (** Coordinator → participant: local failure, a no vote, or the
          vote-collection timeout. *)

val bytes : t -> int
