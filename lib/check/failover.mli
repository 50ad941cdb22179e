(** The acked-commit-survival failover oracle: {!Crash.survival} run
    against the promoted replica.

    A replication-enabled run is audited from the primary's engine side
    ({!Crash.audited_run}).  The primary fail-stops at a seeded virtual
    time ({!Faults.Plan.crash_at_us}), the failure detector declares it
    dead, the replica is promoted — and the oracle checks, independently
    of the shipping and replay machinery:

    - {e acked ⟹ durable}: no ack names a marker outside the primary's
      durable prefix (the early-ack self-test trips this);
    - {e every ack is backed by an audited commit}, and {e every audited
      commit has a marker};
    - {e semi-sync RPO = 0}: while the gate held (no degrade edge), every
      acked marker sits inside the surviving replica prefix — an
      acknowledged commit cannot die with the primary;
    - {e surviving state is exact}, in both directions: the promoted
      engine equals the bootstrap base image overlaid with exactly the
      audited commits the replica applied (probe table excluded) — no
      lost update, no resurrected torn tail, no duplicated apply despite
      at-least-once shipping;
    - {e the promoted engine serves}: post-promotion probe transactions
      committed;
    - {e promoted version chains are well-formed}.

    Fuzzing = calling {!run} over a grid of (crash time × mode × seed)
    cells; every outcome must come back with no violations. *)

type outcome = {
  fv_result : Preemptdb.Runner.result;  (** the crashed (or clean) run *)
  fv_promoted : Storage.Engine.t;
      (** the replica's engine (promoted when failover completed) *)
  fv_survivor_lsn : int;  (** surviving prefix bound *)
  fv_audits : Crash.audit list;  (** commit-ts order *)
  fv_survived_commits : int;  (** audited commits the replica applied *)
  fv_lost_commits : int;  (** committed on the primary, not shipped in time *)
  fv_acked : int;
  fv_acked_lost : int;
      (** RPO in acked commits (0 required in un-degraded semi-sync) *)
  fv_failover : Replication.Failover.outcome option;
  fv_violations : Violation.t list;  (** empty = the oracle passed *)
}

val run :
  cfg:Preemptdb.Config.t ->
  ?tpcc_cfg:Workload.Tpcc_schema.config ->
  ?tpch_cfg:Workload.Tpch_schema.config ->
  ?crash_at_us:float ->
  ?crash_seed:int64 ->
  ?early_ack:bool ->
  ?hb_drop_pct:int ->
  ?replica_crash_at_us:float ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  unit ->
  outcome
(** Run the mixed workload under [cfg] (which must set
    [cfg.replication]), crash the primary at [crash_at_us] (0 = no crash:
    the run ends at the horizon and the oracle checks replication-lag
    consistency instead of failover), and apply the oracle.  [early_ack]
    arms the lying-daemon self-test, which must produce violations;
    [hb_drop_pct] and [replica_crash_at_us] forward to the fault plan.
    @raise Invalid_argument when [cfg.replication] is unset. *)
