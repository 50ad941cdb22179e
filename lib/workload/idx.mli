(** Charged, transactional index operations.

    Probes and scans charge their micro-op; mutations additionally run in a
    non-preemptible region (the paper wraps "index APIs" — §4.4) and
    register undo hooks so aborts roll index entries back. *)

module IT = Storage.Btree.Int_tree
module ST = Storage.Btree.Str_tree

val probe_int : IT.t -> int -> int option

val insert_int : Program.env -> Storage.Txn.t -> IT.t -> key:int -> oid:int -> unit
(** @raise Invalid_argument on a duplicate key (TPC-C keys are unique). *)

val remove_int : Program.env -> Storage.Txn.t -> IT.t -> key:int -> unit
(** Removes the binding, restoring it if the transaction aborts.
    @raise Invalid_argument when the key is absent. *)

(** {1 Charged cursors} *)

val scan_int :
  Program.env -> IT.t -> lo:int -> hi:int -> ?limit:int -> (int -> int -> bool) -> unit
(** [scan_int env tree ~lo ~hi f] advances a cursor, charging one
    [Scan_step] per binding, calling [f key oid] on each; stop early when
    [f] returns [false] or after [limit] bindings.  Preemption-safe: the
    underlying cursor re-seeks after structural changes. *)

val collect_str : Program.env -> ST.t -> lo:string -> hi:string -> (string * int) list

val first_int : Program.env -> IT.t -> lo:int -> hi:int -> (int * int) option
(** Charged probe for the smallest binding in range. *)
