(** Per-transaction read/write footprints, captured through the engine's
    access observer.

    The oracles consume committed footprints only: what each committed
    transaction read (which committed version, by [begin_ts]), what it
    wrote, and its begin/commit timestamps.  Aborted transactions are
    dropped — under MVCC their in-flight versions are unlinked and cannot
    have been observed by anyone (dirty reads would show up as
    foreign-in-flight reads on the {e reader}). *)

type read_rec = {
  r_table : string;
  r_oid : int;
  r_observed : int64;  (** [begin_ts] of the committed version read *)
}

type txn_rec = {
  ft_id : int;
  ft_begin : int64;
  ft_iso : Storage.Txn.iso;
  mutable ft_commit : int64;  (** [-1] while uncommitted *)
  mutable ft_reads : read_rec list;  (** deduped on (table, oid, version) *)
  mutable ft_writes : (string * int) list;  (** deduped (table, oid) *)
  mutable ft_own_reads : int;  (** reads that saw the txn's own in-flight write *)
  mutable ft_foreign_inflight : (string * int) list;
      (** reads that returned {e another} txn's uncommitted version — a
          dirty read, always a violation under every isolation level here *)
  mutable ft_missing : int;  (** reads that returned no visible version *)
}

type t

val create : unit -> t

val observer : t -> Storage.Engine.observer
(** The observer to install with {!Storage.Engine.set_observer} (possibly
    composed with other hooks by the harness). *)

val committed : t -> txn_rec list
(** Committed transactions in commit order. *)
