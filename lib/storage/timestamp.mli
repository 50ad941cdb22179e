(** Centralized commit-timestamp counter (§2.2).

    Every transaction draws a begin timestamp when it starts and a commit
    timestamp when it commits; versions are tagged with the commit timestamp
    of the transaction that produced them.  Loader-installed versions use
    {!bootstrap} (timestamp 0) so they are visible to every snapshot. *)

type t

val create : unit -> t

val bootstrap : int64
(** Timestamp of preloaded data: visible to all transactions. *)

val next : t -> int64
(** Atomically draw the next timestamp (strictly increasing, starting
    at 1). *)

val current : t -> int64
(** Latest timestamp drawn (0 if none). *)

val advance_to : t -> int64 -> unit
(** Raise the counter to [ts] in one step (no-op when it is already at or
    past [ts]): the next {!next} returns [ts + 1].  Recovery resumes the
    counter past the replayed maximum this way. *)
