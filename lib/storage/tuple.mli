(** A record: an OID-addressed version chain and the latch that guards it.

    The latch is only taken by writers during installation and commit;
    readers traverse the chain latch-free (§2.2).  It is a spin latch with
    no built-in deadlock detection, as in real engines (§4.4, footnote 4):
    it records its owning transaction, and acquisition by another
    transaction fails so the caller spins (charging cycles).  The deadlock
    the paper describes — context A paused while holding a latch, context B
    of the {e same} hardware thread spinning on it forever — is detectable
    here because the simulator knows both contexts share a thread; the
    commit executor aborts with [Err.Latch_deadlock] in that case, which
    only non-preemptible regions being disabled can reach. *)

type t = private {
  oid : int;
  mutable chain : Version.t;  (** newest version first, {!Version.nil} when empty *)
  mutable owner : int;  (** latching transaction, [-1] when free *)
  mutable depth : int;  (** re-entrant acquisitions by [owner] *)
}

val create : oid:int -> t

val install : t -> Version.t -> unit
(** Prepend a version (the caller has checked write-conflict rules and holds
    the latch). *)

val unlink_in_flight : t -> writer:int -> unit
(** Abort path: eagerly splice [writer]'s in-flight version out of the
    chain, wherever it sits (usually the head, but possibly below it when
    another writer squeezed past under an injected fault); no-op when the
    writer has no version here. *)

val head : t -> Version.t

val read_committed : t -> Value.t option
(** Latest-committed read; [None] when nothing is committed or the latest
    committed version is a tombstone. *)

val try_latch : t -> owner:int -> bool
(** [try_latch t ~owner] succeeds when free or already latched by [owner]
    (re-entrant, counted).  Transaction ids are non-negative. *)

val unlatch : t -> owner:int -> unit
(** @raise Invalid_argument when [owner] does not hold the latch. *)

val latch_holder : t -> int option
