(** The crash-recovery durability oracle.

    A durability-enabled run is audited from the engine side: every commit
    observed through {!Storage.Engine.set_observer} is recorded with its
    commit timestamp, marker LSN and final write payloads.  The run crashes
    at a seeded virtual time ({!Faults.Plan.crash_at_us} — the in-flight
    flush tears, the unflushed suffix is lost), recovery rebuilds an engine
    from the surviving log, and the oracle checks, independently of the
    replay machinery:

    - {e acked ⟹ durable}: no commit acknowledgement names a marker outside
      the durable prefix (the daemon's early-ack fault trips this — the
      self-test that proves the checker catches a lying daemon);
    - {e every ack is backed by an audited commit}, and {e every audited
      commit has a marker};
    - {e durable effects survive, lost effects are invisible}: the
      recovered state equals the bootstrap base image overlaid with exactly
      the audited commits whose marker is durable, applied in
      commit-timestamp order — whether recovery started from the base or
      from a fuzzy checkpoint;
    - {e recovered chains are well-formed} ({!Oracle.version_chains}).

    {!Grid.durability} runs it over a grid of crash points; every
    outcome must come back with no violations. *)

type audit_write = {
  aw_table : string;
  aw_oid : int;
  aw_payload : Storage.Value.t option;  (** final payload ([None] = delete) *)
}

(** One committed transaction, as the engine observer saw it. *)
type audit = {
  ac_id : int;
  ac_ts : int64;
  ac_lsn : int option;  (** commit-marker LSN *)
  ac_writes : audit_write list;
}

type outcome = {
  co_result : Preemptdb.Runner.result;  (** the crashed run *)
  co_audits : audit list;  (** commit-ts order *)
  co_durable_commits : int;  (** audited commits inside the durable prefix *)
  co_lost_commits : int;  (** committed in memory, lost by the crash *)
  co_acked : int;
  co_violations : Violation.t list;  (** empty = the oracle passed *)
}

val run :
  cfg:Preemptdb.Config.t ->
  ?crash_at_us:float ->
  ?crash_seed:int64 ->
  ?early_ack:bool ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  unit ->
  outcome
(** Run the mixed workload under [cfg] (which must set
    [cfg.durability]), crash at [crash_at_us] (0 = run to the horizon and
    check the clean-shutdown invariants), recover, and apply the oracle.
    [crash_seed] seeds the fault injector (and hence the torn-tail draw);
    [early_ack] arms the lying-daemon self-test, which must produce
    violations.
    @raise Invalid_argument when [cfg.durability] is unset. *)

(** {1 The survival oracle}

    One oracle checks every failure this system survives: a crash
    survived by the recovered log ({!run}) and a primary failure survived
    by the promoted replica ({!Failover.run}).  The two differ only in
    the survivor engine, its LSN prefix, whether acks must lie inside
    that prefix, and a table left out of the comparison. *)

val audited_run :
  cfg:Preemptdb.Config.t ->
  ?tpch_cfg:Workload.Tpch_schema.config ->
  early_ack:bool ->
  plan:Faults.Plan.t ->
  arrival_interval_us:float ->
  horizon_sec:float ->
  unit ->
  Preemptdb.Runner.result * Preemptdb.Runner.assembly * audit list
(** Run the mixed workload under [cfg] with every commit audited through
    the engine observer and the fault [plan] installed; [early_ack] arms
    the lying daemon.  Returns the run, its node and the audits in
    commit-timestamp order. *)

val survived : prefix:int -> audit -> bool
(** The audited commit's marker lies below [prefix]. *)

val survival :
  oracle:string ->
  dur:Preemptdb.Runner.dur_parts ->
  audits:audit list ->
  prefix:int ->
  acked_bound:bool ->
  ?exclude:string ->
  Storage.Engine.t ->
  Violation.t list
(** [survival ~oracle ~dur ~audits ~prefix ~acked_bound ?exclude survivor]
    checks the engine that outlived a finished {!audited_run} ([dur] is
    its node's durability parts; violations are labelled [oracle]): no
    early acks; every ack backed by an audited commit and, when
    [acked_bound], inside [prefix]; every audited commit has a marker;
    [survivor]'s state, [exclude] left out, equals the base image plus
    exactly the audited commits inside [prefix], in both directions; its
    version chains are well-formed. *)
