(** Direct-serialization-graph construction and cycle detection (Adya's
    DSG; the MVCC serializability oracle).

    Nodes are committed transactions.  Edges:
    - {e ww}: consecutive writers of the same record, in commit-timestamp
      order (version order = timestamp order in this engine);
    - {e wr}: the writer whose commit timestamp equals the version a reader
      observed, to that reader;
    - {e rw} (anti-dependency): a reader to the {e first} writer that
      committed a newer version of a record it read.

    An acyclic DSG means the committed history is (view-)serializable in
    the commit-timestamp order.  TPC-C under snapshot isolation produces no
    cycles in this engine (every SI write-write conflict aborts), so any
    cycle is an engine bug — exactly what the {!Harness} self-test's
    injected fault produces. *)

type edge = Ww | Wr | Rw

type cycle = (int * edge * int) list
(** A closed path [(a, e, b); (b, e', c); ...; (z, e'', a)] of txn ids. *)

val cycle_to_string : cycle -> string

val writes_index :
  Footprint.txn_rec list -> (string * int, (int64 * int) list) Hashtbl.t
(** (table, oid) → committed writers as [(commit_ts, txn_id)], sorted by
    commit timestamp.  Shared with the snapshot-consistency oracle. *)

val find_cycle : Footprint.txn_rec list -> cycle option
(** [None] when the DSG is acyclic; otherwise one witness cycle. *)
