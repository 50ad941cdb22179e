module Config = Preemptdb.Config
module Cluster = Shard.Cluster
module Applier = Durability.Recovery.Applier

type resolution = {
  rs_decisions : int;
  rs_in_doubt : int;
  rs_committed : int;
  rs_aborted : int;
  rs_torn : int;
  rs_violations : Violation.t list;
}

let recover logs =
  let vs = ref [] in
  let add fmt =
    Format.kasprintf
      (fun d -> vs := { Violation.oracle = "shard-atomicity"; detail = d } :: !vs)
      fmt
  in
  let appliers = Array.map Durability.Recovery.recover_applier logs in
  let n_shards = Array.length appliers in
  (* Union the durable decision records.  Only the origin shard logs a
     gid's -6, so two shards disagreeing on a timestamp is itself a
     protocol violation (a duplicated gid). *)
  let decisions : (int, int64 * int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun sid ap ->
      List.iter
        (fun (gid, ts, participants) ->
          match Hashtbl.find_opt decisions gid with
          | Some (ts', _) when not (Int64.equal ts ts') ->
            add "gid %d: conflicting decision timestamps %Ld and %Ld (shard %d)"
              gid ts' ts sid
          | _ -> Hashtbl.replace decisions gid (ts, participants))
        (Applier.decisions ap))
    appliers;
  (* decision ⟹ prepared everywhere: the coordinator only logs -6 after
     collecting yes votes, and a yes vote is only legal once the voter's
     prepare record is durable — so every named participant must hold the
     gid prepared (in-doubt) or installed (already committed via -4). *)
  Hashtbl.iter
    (fun gid (_, participants) ->
      List.iter
        (fun p ->
          if p < 0 || p >= n_shards then
            add "gid %d: decision names shard %d outside the %d-shard cluster"
              gid p n_shards
          else if not (Applier.prepared appliers.(p) gid || Applier.installed appliers.(p) gid)
          then
            add
              "gid %d: decision durable but participant shard %d has no durable \
               prepare (voted before its flush?)"
              gid p)
        participants)
    decisions;
  (* install ⟹ decision: a shard only installs after receiving Commit,
     which the coordinator only sends once its decision record is
     durable. *)
  Array.iteri
    (fun sid ap ->
      List.iter
        (fun gid ->
          if not (Hashtbl.mem decisions gid) then
            add "gid %d: shard %d installed it but no decision record is durable anywhere"
              gid sid)
        (Applier.installed_gids ap))
    appliers;
  let in_doubt = Array.fold_left (fun a ap -> a + Applier.prepared_count ap) 0 appliers in
  let decided gid = Option.map fst (Hashtbl.find_opt decisions gid) in
  let committed = ref 0 and aborted = ref 0 and torn = ref 0 in
  Array.iter
    (fun ap ->
      let c, a = Applier.resolve_in_doubt ap ~decided in
      committed := !committed + c;
      aborted := !aborted + a;
      torn := !torn + Applier.discard_pending ap;
      Applier.finish ap;
      if Applier.prepared_count ap > 0 then
        add "%d in-doubt transactions survived resolution" (Applier.prepared_count ap))
    appliers;
  {
    rs_decisions = Hashtbl.length decisions;
    rs_in_doubt = in_doubt;
    rs_committed = !committed;
    rs_aborted = !aborted;
    rs_torn = !torn;
    rs_violations = List.rev !vs;
  }

type outcome = {
  at_stats : Cluster.shard_stats array;
  at_resolution : resolution;
}

let run ~cfg ?(origins = [ 0 ]) ?(crash_sid = -1) ?(crash_at_us = 0.)
    ?(crash_seed = 11L) ?(bug_early_vote = false) ?(arrival_interval_us = 100.)
    ?(horizon_sec = 0.005) () =
  if cfg.Config.shard = None then invalid_arg "Check.Atomic.run: cfg.shard must be set";
  let cl =
    Cluster.create ~cfg ~origins ~bug_early_vote ~arrival_interval_us ()
  in
  let crashing = crash_sid >= 0 && crash_sid < Cluster.n_shards cl && crash_at_us > 0. in
  if crashing then begin
    let clock = Cluster.clock cl in
    let rng = Sim.Rng.create crash_seed in
    Sim.Des.schedule_at_int (Cluster.des cl)
      ~time:(Int64.to_int (Sim.Clock.cycles_of_us clock crash_at_us))
      (fun _ ->
        if not (Cluster.crashed cl ~sid:crash_sid) then
          Cluster.crash_shard cl ~sid:crash_sid ~rng)
  end;
  Cluster.run cl ~horizon_sec;
  let logs =
    Array.init (Cluster.n_shards cl) (fun sid -> Cluster.log cl ~sid)
  in
  { at_stats = Cluster.stats cl; at_resolution = recover logs }
