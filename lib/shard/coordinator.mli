(** Per-shard vote-collection table.

    Each originating shard keeps one of these over its own {!Uintr.Gate}
    registry.  A cross-shard transaction registers its pending entry
    {e before} sending prepares (votes can arrive while the coordinator
    worker is still parked on its prepare-durability wait); the vote
    handler resolves the transaction's gate — 1 = commit (all yes),
    0 = abort (any no, or the timeout) — which unparks the coordinator
    context through the worker's gate machinery.  Single-domain DES, so no
    locking. *)

type t

val create : gates:Uintr.Gate.t -> t

val register : t -> gid:int -> participants:int list -> int
(** Mint a fresh gate for [gid], waiting on one yes vote per participant
    shard; returns the gate id.  @raise Invalid_argument on a duplicate
    live gid or an empty participant list. *)

val on_vote : t -> gid:int -> shard:int -> yes:bool -> unit
(** A no vote decides abort immediately; the last missing yes vote decides
    commit.  Votes for unknown gids (already decided / timed out) and
    duplicate yes votes are counted and ignored. *)

val timeout : t -> gid:int -> unit
(** Decide abort if [gid] is still undecided (the coordinator's
    vote-collection deadline); no-op otherwise. *)

val cancel : t -> gid:int -> unit
(** Drop a pending entry without resolving its gate (local prepare
    failed: the coordinator is not parked and will not be). *)

val pending : t -> int
val timeouts : t -> int
val late_votes : t -> int
val dup_votes : t -> int
