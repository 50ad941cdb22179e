(** Ledger microworkload: serializable scan-and-settle transactions.

    A synthetic account table exercised under [Serializable] isolation,
    where commits latch their (large) read sets — the §4.4 scenario in
    which preempting a transaction mid-commit deadlocks its sibling
    context.  Used by the non-preemptible-region ablation bench and as a
    third workload family beyond TPC-C/TPC-H.

    - {e audit} (low priority, long): snapshot-scan a block of accounts,
      then settle a few of them (credit/debit pairs), serializable.
    - {e transfer} (high priority, short): move funds between two
      accounts, serializable.

    Invariant: the sum of all balances is conserved by every committed
    transaction (checked by tests). *)

type config = {
  accounts : int;
  branches : int;  (** read-only "branch summary" rows; account a belongs
                       to branch [a mod branches] *)
  audit_scan : int;  (** accounts read per audit *)
  audit_settle : int;  (** accounts updated per audit (even) *)
  zipf_theta : float;  (** skew of transfer targets *)
}

val default : config

type t

val cfg : t -> config
val table : t -> Storage.Table.t

val create : Storage.Engine.t -> config -> t
val load : t -> Sim.Rng.t -> unit
(** Every account starts with balance 1000. *)

val total_balance : t -> int
(** Sum of latest-committed balances (the conserved quantity). *)

val audit : t -> Program.t
(** Low-priority long transaction (serializable): reads every branch row,
    scans a block of accounts, settles a few.  Its commit latches the
    branch rows first (lowest table id), then the scanned accounts — a
    long latch-held window. *)

val transfer : t -> Program.t
(** High-priority short transaction (serializable): reads the source
    account's branch row (read-only — so its certification must latch a
    row that a paused audit may hold, the §4.4 wait-for edge), then moves
    funds between two accounts. *)
