(** The cross-shard atomicity oracle.

    A sharded run ({!Shard.Cluster}) leaves one durable log per shard.
    Recovery feeds each log's durable suffix through
    {!Durability.Recovery.recover_applier}, unions the -6 decision
    records across every shard, and the oracle checks the presumed-abort
    contract independently of the live 2PC machinery:

    - {e decision ⟹ prepared everywhere}: every durable decision's
      participant shards each hold a durable prepare (or install) for the
      gid.  A participant that votes yes before its prepare record is
      durable (the [bug_early_vote] self-test) and then crashes with the
      record in the torn tail violates exactly this clause — the
      coordinator committed a transaction one shard cannot recover;
    - {e install ⟹ decision}: no shard carries a -4 install marker for a
      gid with no durable decision record anywhere — a shard must never
      commit a cross-shard transaction the coordinator could still
      presume aborted;
    - {e decisions are unique}: the same gid never resolves to two
      different commit timestamps;
    - {e in-doubt resolution converges}: every prepared-but-undecided gid
      presumes abort, every decided one installs, and ordinary torn
      tails discard — all-or-nothing across the surviving logs.

    {!Grid.shards} runs it over a grid of (crash instant × crash role)
    cells; restricting [origins] to shard 0 makes crashing shard 0 the
    coordinator-crash cell and any other shard the participant-crash
    cell. *)

type resolution = {
  rs_decisions : int;  (** durable -6 records, unioned across shards *)
  rs_in_doubt : int;  (** prepares unresolved when recovery started *)
  rs_committed : int;  (** in-doubt gids installed from a decision *)
  rs_aborted : int;  (** in-doubt gids presumed aborted *)
  rs_torn : int;  (** markerless buffered txns discarded *)
  rs_violations : Violation.t list;  (** empty = the oracle passed *)
}

val recover : Durability.Log.t array -> resolution
(** The bare oracle: recover every shard's log, check the invariants,
    resolve the in-doubt set against the decision union, discard torn
    tails and finish each applier. *)

type outcome = {
  at_stats : Shard.Cluster.shard_stats array;
  at_resolution : resolution;
}

val run :
  cfg:Preemptdb.Config.t ->
  ?origins:int list ->
  ?crash_sid:int ->
  ?crash_at_us:float ->
  ?crash_seed:int64 ->
  ?bug_early_vote:bool ->
  ?arrival_interval_us:float ->
  ?horizon_sec:float ->
  unit ->
  outcome
(** Run a sharded workload under [cfg] (which must set [cfg.shard]),
    fail-stop shard [crash_sid] at [crash_at_us] virtual µs
    ([crash_sid < 0] or [crash_at_us = 0] = clean run), then apply
    {!recover} to the surviving logs.  [origins] defaults to [[0]] so
    the crash-role grid stays meaningful; [bug_early_vote] arms the
    intentional protocol bug the self-test must catch.
    @raise Invalid_argument when [cfg.shard] is unset. *)
