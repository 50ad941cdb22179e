module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module P = Workload.Program

type audit = {
  au_table : string;
  au_oid : int;
  au_boundary : int64;
  au_kept_ts : int64;
  au_dropped : int64 list;  (* newest first *)
  au_active : int64 list;  (* live snapshots at unlink time *)
}

type t = {
  eng : Engine.t;
  epoch : Epoch.t;
  sweep : Storage.Sweep.t;
  non_preemptible_chunks : bool;
  mutable chunks_ : int;
  mutable scanned_ : int;
  mutable reclaimed_ : int;
  chain_hist : Sim.Histogram.t;
  release_fn : Version.t -> unit; (* unlinked nodes go back to the engine pool *)
  mutable audit_enabled : bool;
  mutable audits_ : audit list;
  mutable emit : (Obs.Event.t -> unit) option;
}

let create ?chunk_tuples ?(non_preemptible_chunks = false) ~eng ~epoch () =
  {
    eng;
    epoch;
    sweep = Storage.Sweep.create ?chunk_tuples eng;
    non_preemptible_chunks;
    chunks_ = 0;
    scanned_ = 0;
    reclaimed_ = 0;
    chain_hist = Sim.Histogram.create ();
    release_fn = Version.release (Engine.version_pool eng);
    audit_enabled = false;
    audits_ = [];
    emit = None;
  }

let epoch t = t.epoch
let chunks t = t.chunks_
let tuples_scanned t = t.scanned_
let versions_reclaimed t = t.reclaimed_
let passes t = Storage.Sweep.passes t.sweep
let chain_histogram t = t.chain_hist
let set_emit t f = t.emit <- f
let set_audit t enabled = t.audit_enabled <- enabled
let audits t = List.rev t.audits_

(* Truncate one chain, with the unlink wrapped in a non-preemptible region:
   a user interrupt landing mid-unlink is rejected and recognized at the
   next boundary, exactly like the staged-commit critical section. *)
let reclaim_tuple t env table tuple ~boundary =
  let rec find_kept v =
    if
      Version.is_nil v
      || (Version.is_committed v && Int64.compare v.Version.begin_ts boundary <= 0)
    then v
    else find_kept v.Version.next
  in
  let kept = find_kept (Tuple.head tuple) in
  if not (Version.is_nil kept || Version.is_nil kept.Version.next) then
    P.non_preemptible env (fun () ->
        let dropped =
          if t.audit_enabled then
            List.rev
              (Version.fold (fun acc v -> v.Version.begin_ts :: acc) [] kept.Version.next)
          else []
        in
        let n =
          Version.truncate_older_than ~release:t.release_fn (Tuple.head tuple)
            ~boundary
        in
        t.reclaimed_ <- t.reclaimed_ + n;
        if t.audit_enabled then
          t.audits_ <-
            {
              au_table = Table.name table;
              au_oid = tuple.Tuple.oid;
              au_boundary = boundary;
              au_kept_ts = kept.Version.begin_ts;
              au_dropped = dropped;
              au_active = Engine.active_snapshots t.eng;
            }
            :: t.audits_;
        P.charge (P.Gc_unlink n))

let chunk_program t : P.t =
 fun env ->
  (match Storage.Sweep.claim t.sweep with
  | None -> ()
  | Some (table, first, count) ->
    let boundary = Epoch.reclaim_boundary t.epoch in
    let body () =
      let reclaimed_before = t.reclaimed_ in
      for oid = first to first + count - 1 do
        P.charge P.Gc_scan;
        let tuple = Table.get table oid in
        Sim.Histogram.record t.chain_hist
          (Int64.of_int (Version.committed_length (Tuple.head tuple)));
        t.scanned_ <- t.scanned_ + 1;
        reclaim_tuple t env table tuple ~boundary
      done;
      t.chunks_ <- t.chunks_ + 1;
      match t.emit with
      | Some f ->
        f
          (Obs.Event.Gc_chunk
             {
               table = Table.name table;
               first_oid = first;
               scanned = count;
               reclaimed = t.reclaimed_ - reclaimed_before;
             })
      | None -> ()
    in
    (* Ablation: a GC that refuses preemption for the whole chunk — the
       latency spike the paper's preemptible design avoids. *)
    if t.non_preemptible_chunks then P.non_preemptible env body else body ());
  P.Committed 0L
