(** Fuzzy checkpointing as preemptible background maintenance.

    A checkpoint pass walks every table in OID-range chunks on a
    {!Storage.Sweep} — the cursor {!Maint.Reclaimer} uses too — copying
    each record's latest committed version into an image: the sweep's
    table-done hook closes a table's rows, its pass-done hook publishes
    the image.  Chunks run as ordinary low-priority maintenance requests
    on the same lane as GC chunks, so a user interrupt preempts a pass
    between tuple scans instead of stalling behind it.

    The pass is {e fuzzy}: commits land while it walks.  Correctness comes
    from recording the log position when the pass {e begins} — recovery
    installs the image and replays from that LSN, and its per-record
    install is idempotent by commit timestamp, so records captured by both
    the image and the replayed suffix converge. *)

type t

val create : ?chunk_tuples:int -> eng:Storage.Engine.t -> log:Log.t -> unit -> t
(** Default chunk: 256 tuples.
    @raise Invalid_argument when [chunk_tuples < 1]. *)

val chunk_program : t -> Workload.Program.t
(** One chunk of checkpoint work; completing a full pass over all tables
    publishes the image via {!Log.install_checkpoint}.  Over an engine
    whose tables are all empty a chunk completes one (empty) pass and
    returns. *)

val passes : t -> int
(** Completed (published) passes. *)

val chunks : t -> int
val tuples_scanned : t -> int
val set_emit : t -> (Obs.Event.t -> unit) option -> unit
