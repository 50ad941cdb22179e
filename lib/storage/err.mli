(** Transaction abort reasons and storage-level errors. *)

type abort_reason =
  | Write_conflict
      (** first-updater-wins: the record's newest version is uncommitted and
          belongs to another transaction *)
  | Read_validation
      (** serializable OCC validation found a newer committed version under
          a read-set entry *)
  | Latch_deadlock
      (** acquiring this latch can never succeed (held by a paused context
          of the same thread) — only reachable when non-preemptible regions
          are disabled (§4.4) *)
  | User_abort  (** the transaction logic requested rollback *)

val abort_reason_to_string : abort_reason -> string
