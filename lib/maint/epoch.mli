(** The reclamation epoch manager.

    A global epoch counter advanced by the scheduling thread on a fixed
    cadence.  Opening epoch [e] records the engine's current timestamp as
    [boundary e]; every transaction registers with the then-current epoch
    at begin and deregisters at commit/abort (wired through
    {!Storage.Engine.set_lifecycle} by {!attach}).  Because a transaction
    registered in epoch [e] drew its snapshot {e after} [boundary e] was
    recorded, and boundaries are monotone, every live or future snapshot is
    at or above [boundary (safe_epoch)] — which is therefore a sound
    reclamation boundary ({!reclaim_boundary}): versions superseded at or
    before it can never be read again.

    Registration is per transaction rather than per worker: under
    preemption one hardware thread holds several live snapshots at once
    (the paused low-priority transaction plus the high-priority one that
    displaced it), so worker-granular tracking would be unsound. *)

type t

val create : Storage.Timestamp.t -> t
(** Epoch 0 opens at the timestamp source's current value. *)

val attach : t -> Storage.Engine.t -> unit
(** Install the engine lifecycle hooks that register/deregister
    transactions (replaces any previous lifecycle). *)

val advance : t -> int
(** Open the next epoch, recording its boundary timestamp; returns the new
    current epoch.  Prunes boundaries below the safe epoch. *)

val current : t -> int

val safe_epoch : t -> int
(** Oldest epoch still pinned by a live transaction; [current] when idle. *)

val lag : t -> int
(** [current - safe_epoch]: how far reclamation trails behind — grows when
    a long transaction pins an old epoch. *)

val max_lag : t -> int
(** Largest lag ever observed at an {!advance}. *)

val boundary : t -> int -> int64
(** Timestamp recorded when the given epoch opened.
    @raise Invalid_argument if the epoch has been pruned. *)

val reclaim_boundary : t -> int64
(** [boundary (safe_epoch)]: versions whose {e successor} committed at or
    before this are invisible to every live and future snapshot. *)

val advances : t -> int
