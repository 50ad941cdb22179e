module Txn = Storage.Txn
module Version = Storage.Version

type read_rec = { r_table : string; r_oid : int; r_observed : int64 }

type txn_rec = {
  ft_id : int;
  ft_begin : int64;
  ft_iso : Txn.iso;
  mutable ft_commit : int64;
  mutable ft_reads : read_rec list;
  mutable ft_writes : (string * int) list;
  mutable ft_own_reads : int;
  mutable ft_foreign_inflight : (string * int) list;
  mutable ft_missing : int;
}

type t = {
  live : (int, txn_rec) Hashtbl.t;
  mutable committed_rev : txn_rec list;
}

let create () =
  { live = Hashtbl.create 256; committed_rev = [] }

let rec_of t (txn : Txn.t) =
  match Hashtbl.find_opt t.live txn.Txn.id with
  | Some r -> r
  | None ->
    let r =
      {
        ft_id = txn.Txn.id;
        ft_begin = txn.Txn.begin_ts;
        ft_iso = txn.Txn.iso;
        ft_commit = -1L;
        ft_reads = [];
        ft_writes = [];
        ft_own_reads = 0;
        ft_foreign_inflight = [];
        ft_missing = 0;
      }
    in
    Hashtbl.replace t.live txn.Txn.id r;
    r

let observer t : Storage.Engine.observer =
  {
    obs_read =
      (fun ~txn ~table ~oid ~version ->
        let r = rec_of t txn in
        match version with
        | None -> r.ft_missing <- r.ft_missing + 1
        | Some v ->
          if Version.is_committed v then begin
            let rr =
              { r_table = Storage.Table.name table; r_oid = oid; r_observed = v.Version.begin_ts }
            in
            if
              not
                (List.exists
                   (fun x ->
                     x.r_oid = oid
                     && Int64.equal x.r_observed rr.r_observed
                     && String.equal x.r_table rr.r_table)
                   r.ft_reads)
            then r.ft_reads <- rr :: r.ft_reads
          end
          else if v.Version.writer = Some txn.Txn.id then r.ft_own_reads <- r.ft_own_reads + 1
          else
            r.ft_foreign_inflight <-
              (Storage.Table.name table, oid) :: r.ft_foreign_inflight);
    obs_write =
      (fun ~txn ~table ~oid ->
        let r = rec_of t txn in
        let w = (Storage.Table.name table, oid) in
        if not (List.mem w r.ft_writes) then r.ft_writes <- w :: r.ft_writes);
    obs_commit =
      (fun ~txn ~commit_ts ->
        let r = rec_of t txn in
        r.ft_commit <- commit_ts;
        Hashtbl.remove t.live txn.Txn.id;
        t.committed_rev <- r :: t.committed_rev);
    obs_abort = (fun ~txn ~reason:_ -> Hashtbl.remove t.live txn.Txn.id);
  }

let committed t = List.rev t.committed_rev
