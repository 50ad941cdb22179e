(** In-memory B+tree index mapping ordered keys to OIDs.

    Leaf-linked, unique-key semantics.  Deletion removes the key from its
    leaf without rebalancing (lazy deletion — underfull leaves are allowed
    but every structural invariant still holds); this is a standard
    simplification for in-memory trees with append-heavy workloads like
    TPC-C.

    A leaf is two arrays with slack and a fill count: an insert or remove
    shifts keys inside them, and only a full leaf reallocates, at twice its
    capacity up to 33 slots, where it splits into two exact halves.  So an
    insert into a leaf with room allocates nothing.  Slack slots hold
    copies of live keys only, so a removed key is not kept alive by its
    leaf.  Internal nodes change only on a split and keep exact-size
    arrays.

    Range scans run through a {!type:Make.cursor} that survives concurrent
    structural modification by re-seeking from the last returned key when
    the tree's version stamp changes — exactly the property a preemptible
    scan needs, since an interleaved high-priority transaction may insert
    into the scanned table while the scan is paused. *)

module type KEY = sig
  type t

  val compare : t -> t -> int
  val pp : Format.formatter -> t -> unit
end

module Make (K : KEY) : sig
  type t

  val create : unit -> t

  val length : t -> int

  val mark_written : t -> unit
  (** Record that some transaction class declares writes to this tree
      ({!Txn.declare}). *)

  val written : t -> bool
  (** No declared class writes an unmarked tree, so reads of it commute
      with every transaction. *)

  val height : t -> int

  val insert : t -> K.t -> int -> int option
  (** [insert t k oid] binds [k]; returns the previous binding if any
      (which is replaced). *)

  val find : t -> K.t -> int option

  val remove : t -> K.t -> int option
  (** Remove the binding, returning it if present. *)

  val iter : t -> (K.t -> int -> unit) -> unit

  type cursor

  val cursor : t -> lo:K.t -> hi:K.t -> cursor
  (** Ascending cursor over [lo <= k <= hi] (inclusive). *)

  val cursor_next : cursor -> (K.t * int) option
  (** Next binding, or [None] when exhausted.  Safe across arbitrary
      interleaved inserts/removes on the same tree: already-returned keys
      are never repeated, and bindings present for the whole scan are never
      skipped. *)

  val check_invariants : t -> unit
  (** Validate sortedness, separator bounds, uniform leaf depth, the leaf
      chain, and the element count.  @raise Failure describing the first
      violation. *)
end

module Int_key : KEY with type t = int
module Str_key : KEY with type t = string

module Int_tree : module type of Make (Int_key)
module Str_tree : module type of Make (Str_key)
