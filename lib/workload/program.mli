(** Resumable transaction programs.

    Transaction logic is ordinary direct-style OCaml; every engine call
    first {e performs} a [Charge] effect naming the micro-operation.  The
    executor handles the effect, charges the operation's cycle cost to
    virtual time, decides whether a pending user interrupt may fire at this
    boundary, and resumes the continuation.  Micro-ops cost a few hundred
    cycles (≈ 0.1 µs), so a pending interrupt is recognized within sub-µs of
    [senduipi] — the paper's "preempt at almost any instruction" granularity
    (Figure 3).  This mirrors how the real system preempts between machine
    instructions; the OCaml effect continuation plays the role of the
    uintr frame.

    A program must be resumed to completion exactly once (continuations are
    one-shot); {!discard} abandons a suspended program safely. *)

type op =
  | Index_probe  (** one B+tree point lookup *)
  | Index_insert
  | Index_remove
  | Scan_step  (** one cursor advance *)
  | Record_read  (** one latch-free version-chain read *)
  | Record_write  (** install one in-flight version *)
  | Record_insert
  | Compute of int  (** pure computation of the given cycle count *)
  | Spin of int  (** busy-wait on a contended latch *)
  | Txn_begin
  | Commit_latch  (** one staged-commit latch acquisition *)
  | Commit_validate
  | Commit_install of int  (** stamp + log [n] write-set entries *)
  | Txn_abort
  | Yield_hint
      (** zero-cost marker at a natural pause point (used by the
          handcrafted cooperative baseline, §6.3) *)
  | Gc_scan  (** reclamation: inspect one tuple's chain for dead versions *)
  | Gc_unlink of int
      (** reclamation: cut [n] dead versions off one chain — the only
          maintenance micro-op that mutates a chain, wrapped in a
          non-preemptible region by the reclaimer *)
  | Commit_wait of int
      (** durability: the transaction committed in memory and published
          commit-marker LSN [n]; the worker intercepts this op and either
          parks the context until the group-commit flush covers the LSN
          (unparked by userspace interrupt) or, in the blocking ablation,
          holds the context until durability catches up.  Charged outside
          the non-preemptible commit region. *)
  | Gate_wait of int
      (** distributed commit: wait for one-shot protocol gate [n] (the 2PC
          coordinator's vote-collection outcome, or a participant's
          commit/abort decision).  Served by the worker with the same
          park/unpark or blocking-spin machinery as [Commit_wait]; must
          likewise be charged outside non-preemptible regions. *)

val is_record_access : op -> bool
(** The accesses counted against the cooperative yield interval (§6.1:
    "yield after accessing every 10,000 records"). *)

(** Execution environment handed to a program when it starts. *)
type env = {
  eng : Storage.Engine.t;
  worker : int;  (** hardware-thread id executing the program *)
  ctx : int;  (** context index on that thread *)
  cls : Uintr.Cls.area;  (** the context's CLS area (log buffer etc.) *)
  rng : Sim.Rng.t;  (** per-request random stream *)
}

type outcome =
  | Committed of int64  (** commit timestamp *)
  | Aborted of Storage.Err.abort_reason

type t = env -> outcome
(** A transaction program. *)

(** {1 Suspension machinery (used by the executor)} *)

type step =
  | Pending of op * resumption
  | Finished of outcome

and resumption

val start : ?stepper:(op -> bool) -> t -> env -> step
(** Run the program up to its first charge point that suspends.  While it
    runs, every charge first offers its op to [stepper] (default: decline
    all): [true] means the executor took the whole step inline — paid the
    op and passed every check it makes at a boundary — and the program
    continues without suspending; [false] suspends it as [Pending]. *)

val resume : ?stepper:(op -> bool) -> resumption -> step
(** Continue past a charge point to the next one that suspends (same
    [stepper] contract as {!start}). *)

val pending_commutes : unit -> bool
(** Whether the op of the [Pending] step just returned by {!start} or
    {!resume} commutes with every other worker's steps (a snapshot read,
    [Compute], [Yield_hint], or a probe or scan step on an index that no
    transaction class writes); read it before starting or resuming
    another program.  Inside a stepper, the same for the op offered. *)

val discard : resumption -> unit
(** Abandon a suspended program (discontinues the continuation). *)

(** {1 Charged operations (used inside programs)} *)

val charge : op -> unit
(** Perform the charge effect (a step that does not commute).
    @raise Failure when called outside {!start}/{!resume}. *)

val charge_as : commutes:bool -> op -> unit
(** {!charge}, telling the executor whether the step (the op and the code
    up to the next charge) commutes with every other worker's steps.  A
    program that touches shared state must do so behind a charge that
    does not commute. *)

val compute : int -> unit
(** [compute cycles] charges pure computation. *)

val yield_hint : unit -> unit

exception Txn_failed of Storage.Err.abort_reason
(** Raised by the charged helpers when the engine reports a conflict; the
    standard wrappers ({!Tpcc}, {!Tpch_q2}) catch it, abort the transaction
    and return [Aborted]. *)

val read : env -> Storage.Txn.t -> Storage.Table.t -> oid:int -> Storage.Value.t option
val update : env -> Storage.Txn.t -> Storage.Table.t -> oid:int -> Storage.Value.t -> unit
val delete : env -> Storage.Txn.t -> Storage.Table.t -> oid:int -> unit
val insert : env -> Storage.Txn.t -> Storage.Table.t -> Storage.Value.t -> Storage.Tuple.t

val read_only : Storage.Txn.writes
(** The declaration of a class that writes nothing. *)

val begin_txn : ?iso:Storage.Txn.iso -> writes:Storage.Txn.writes -> env -> Storage.Txn.t
(** [writes] is the class's declared write set ({!Storage.Txn.declare}):
    a write outside it fails loudly. *)

val commit : env -> Storage.Txn.t -> int64
(** Staged commit: one [Commit_latch] charge per latch (spinning with
    same-thread deadlock detection), then validation, then install.  The
    whole sequence runs inside a non-preemptible region (§4.4) — the
    region counter lives in the context's CLS.
    @raise Txn_failed on validation failure or detected deadlock (the
    transaction is aborted first). *)

val abort : env -> Storage.Txn.t -> unit

val run_txn :
  ?iso:Storage.Txn.iso ->
  writes:Storage.Txn.writes ->
  env ->
  (Storage.Txn.t -> unit) ->
  outcome
(** [run_txn env body]: begin, run [body], commit; on [Txn_failed] abort and
    return [Aborted].  The standard shape of a workload transaction. *)

(** {1 Non-preemptible regions} *)

val non_preemptible : env -> (unit -> 'a) -> 'a
(** Run [f] inside a non-preemptible region on the program's own CLS area
    ({!Uintr.Region.within}) — engine-internal critical sections (index
    updates, allocator, commit). *)
