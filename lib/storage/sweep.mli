(** A chunked cursor over an engine's tables — the one walk that
    background maintenance (version reclamation, fuzzy checkpoints) runs
    its chunks on.

    Each {!claim} hands out the next disjoint OID range of the current
    table and advances past it.  Claiming is one uncharged step, so chunk
    programs dispatched concurrently on different workers always work
    disjoint ranges.  The table list and sizes are re-read on every claim,
    so a sweep follows tables and rows created while it walks. *)

type t

val create : ?chunk_tuples:int -> Engine.t -> t
(** [chunk_tuples] (default 256) tuples per range.
    @raise Invalid_argument when [chunk_tuples < 1]. *)

val claim :
  ?table_done:(Table.t -> unit) ->
  ?pass_done:(unit -> unit) ->
  t ->
  (Table.t * int * int) option
(** The next range as [(table, first_oid, count)]: [chunk_tuples] tuples
    of the current table, fewer at its tail.  When the cursor moves past a
    table (consumed, or empty) [table_done] receives it; when it moves
    past the last table the pass count grows and [pass_done] fires before
    the cursor wraps to the first.  [None] when every table is empty: a
    claim visits each table at most once beyond its starting one, so it
    always returns. *)

val passes : t -> int
(** Completed sweeps over all tables. *)
