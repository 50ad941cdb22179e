(** Cycle accounting: attribute every simulated cycle to a
    (worker × phase) bucket.

    The worker's [charge] function — the single point where simulated work
    cycles are paid — feeds a per-worker slice ({!worker}) of a shared
    profiler.  Fixed buckets (switch overhead, interrupt handling, queue
    ops, commit waits, ...) and transaction classes (keyed by label) are
    each one [int ref] cell.  The worker resolves the cell a request's
    micro-ops go to once, when it installs the request ({!txn_cell},
    {!bucket_cell}), so the per-op path is one add and allocates nothing.

    Conservation invariant: per worker, the sum of all non-{!Idle} buckets
    equals exactly the cycles charged ([Worker.stats.busy_cycles]) — no
    double count, no leak.  {!Idle} is derived at run end
    (horizon − busy, clamped at 0) so the top-k table sums to the total
    simulated cycles. *)

type bucket =
  | Switch_passive  (** interrupt-driven preemption (TCB switch) *)
  | Switch_active  (** voluntary [swap_context] (incl. switch-back) *)
  | Uintr_handler  (** handler entry/exit with no switch (empty interrupt) *)
  | Uintr_reject  (** preemption refused: region or swap window *)
  | Queue_op  (** dequeue / queue bookkeeping *)
  | Retry_backoff  (** post-conflict exponential backoff *)
  | Coop_check  (** cooperative-policy yield checks *)
  | Commit_publish  (** Commit_wait LSN publish *)
  | Commit_spin  (** blocking-commit ablation spin *)
  | Commit_unpark  (** parked-commit resume *)
  | Fault_stall  (** injected region-stall cycles *)
  | Starvation_check  (** post-transaction TSC read *)
  | Gc  (** background-reclamation chunk micro-ops *)
  | Ckpt  (** fuzzy-checkpoint chunk micro-ops *)
  | Idle  (** horizon − busy, accounted at run end *)

type t
type worker

val create : unit -> t

val worker : t -> wid:int -> worker
(** The per-worker slice (memoized: same [wid] returns the same slice). *)

val account : worker -> bucket -> int -> unit
(** Add cycles to a bucket.  Negative amounts are ignored. *)

val bucket_cell : worker -> bucket -> int ref
(** The cell behind a bucket: what {!account} adds to. *)

val txn_cell : worker -> label:string -> int ref
(** The cell of transaction class [label] (reported as [txn:<label>]),
    created at 0 on first use.  A hot path adds its cycles to it
    directly.  Cells at 0 are not reported, so resolving a class that
    never runs changes no output. *)

val worker_ids : t -> int list
(** Ascending ids of workers that accounted anything. *)

val worker_buckets : t -> wid:int -> (string * int64) list
(** All non-zero buckets of one worker, largest first. *)

val worker_total : t -> wid:int -> int64
(** Sum of all buckets including {!Idle}. *)

val non_idle_total : t -> wid:int -> int64
(** Sum of all buckets excluding {!Idle} — must equal the worker's
    [busy_cycles] (the conservation invariant). *)

val totals : t -> (string * int64) list
(** Buckets aggregated across workers, largest first. *)

val total_cycles : t -> int64
(** Grand total over all workers and buckets (busy + idle). *)

val top_k : t -> int -> (string * int64) list

val to_folded : t -> string
(** Folded-stack flamegraph lines ([flamegraph.pl] input):
    ["worker<wid>;<bucket> <cycles>\n"], workers ascending, buckets
    largest first. *)

val to_json : t -> Json.t
(** [{"total_cycles", "buckets": [{"bucket","cycles","share"}...],
    "workers": [{"wid","cycles","idle_cycles"}...]}]. *)
