(** Transaction descriptors.

    Pure state; the rules live in {!Engine}.  A transaction records which
    hardware thread and context it runs on so the executor can detect the
    same-thread latch deadlocks of §4.4. *)

type iso =
  | Read_committed
  | Si  (** snapshot isolation — ERMIA's default, used by all experiments *)
  | Serializable
      (** SI plus OCC-style backward read validation with read-set latching
          at commit *)

type state = Active | Preparing | Committed | Aborted

type write_entry = {
  wtable : Table.t;
  wtuple : Tuple.t;
  wversion : Version.t;  (** the in-flight version this txn installed *)
}

type read_entry = {
  rtable : Table.t;
  rtuple : Tuple.t;
  observed : int64;  (** [begin_ts] of the version read *)
}

type t = {
  id : int;
  begin_ts : int64;
  iso : iso;
  worker : int;
  ctx : int;
  mutable state : state;
  mutable commit_ts : int64 option;
  mutable commit_lsn : int option;
      (** commit-marker LSN, set by the durability layer when armed — the
          LSN whose durability acknowledges this transaction *)
  mutable writes : write_entry list;  (** newest first *)
  mutable reads : read_entry list;  (** tracked only under [Serializable] *)
  mutable undo : (unit -> unit) list;  (** index-entry rollback hooks *)
  mutable latch_plan : Tuple.t array;  (** commit latch order (§4.4) *)
  mutable latched : int;  (** how many of [latch_plan] are held *)
  declared : writes option;
      (** the write set its class declares; [None]: unrestricted (loaders,
          recovery, direct engine use) *)
}

and writes
(** A transaction class's declared write set: the tables and indexes its
    transactions may write. *)

val declare : ?tables:Table.t list -> ?indexes:Btree.Int_tree.t list -> unit -> writes
(** Build a declaration and mark each index as written
    ({!Btree.Make.mark_written}).  Declare every class before the run
    starts: a tree no declaration marks is read-only for the whole run, and
    the simulator lets probes and scans of it run ahead of other workers. *)

val check_table : t -> Table.t -> unit
(** @raise Failure when the transaction has a declaration that does not
    name the table (called by {!Engine} on every write). *)

val check_index : t -> Btree.Int_tree.t -> unit
(** @raise Failure when the transaction has a declaration that does not
    name the index. *)

val state_to_string : state -> string

val make :
  ?declared:writes -> id:int -> begin_ts:int64 -> iso:iso -> worker:int -> ctx:int -> unit -> t

val is_active : t -> bool

val find_write : t -> Tuple.t -> write_entry option
(** This txn's own in-flight write to the tuple, if any. *)

val on_abort : t -> (unit -> unit) -> unit
(** Register an undo hook, run (LIFO) if the transaction aborts. *)

val pp : Format.formatter -> t -> unit
