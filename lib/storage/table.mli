(** A table: a growable OID-indexed array of records.

    Indexes (primary and secondary) are {!Btree} instances owned by the
    workload layer and map keys to OIDs; the table itself is the indirection
    array mapping OIDs to version chains, as in ERMIA's OID arrays.  Slot
    [oid] holds its {!Tuple.t} directly, with no option box; the capacity
    slack past {!size} holds one shared placeholder tuple that {!get} and
    {!iter} never return. *)

type t

val create : id:int -> name:string -> t
(** [id] orders tables globally for consistent latch ordering. *)

val id : t -> int
val name : t -> string

val alloc : t -> Tuple.t
(** Allocate a fresh record with the next OID. *)

val get : t -> int -> Tuple.t
(** @raise Invalid_argument on an unknown OID. *)

val size : t -> int

val iter : t -> (Tuple.t -> unit) -> unit
