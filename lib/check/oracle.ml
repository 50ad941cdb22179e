module F = Footprint
module Value = Storage.Value
module Sc = Workload.Tpcc_schema

let serializability txns =
  match Dsg.find_cycle txns with
  | None -> []
  | Some c ->
    [ Violation.make "serializability" "DSG cycle among committed txns: %s" (Dsg.cycle_to_string c) ]

let snapshot_consistency (txns : F.txn_rec list) =
  let writes = Dsg.writes_index txns in
  let out = ref [] in
  let add v = if List.length !out < 100 then out := v :: !out in
  List.iter
    (fun r ->
      (match r.F.ft_foreign_inflight with
      | [] -> ()
      | (tbl, oid) :: _ ->
        add
          (Violation.make "dirty-read" "T%d read another txn's in-flight version of %s:%d"
             r.F.ft_id tbl oid));
      if r.F.ft_iso <> Storage.Txn.Read_committed then begin
        (* repeatable read: at most one observed version per (table, oid) *)
        let seen = Hashtbl.create 16 in
        List.iter
          (fun rd ->
            let key = (rd.F.r_table, rd.F.r_oid) in
            (match Hashtbl.find_opt seen key with
            | Some ts when not (Int64.equal ts rd.F.r_observed) ->
              add
                (Violation.make "snapshot" "T%d read %s:%d at two versions (%Ld and %Ld)"
                   r.F.ft_id rd.F.r_table rd.F.r_oid ts rd.F.r_observed)
            | _ -> ());
            Hashtbl.replace seen key rd.F.r_observed;
            (* rule 1: no reads from the future of the snapshot *)
            if Int64.compare rd.F.r_observed r.F.ft_begin > 0 then
              add
                (Violation.make "snapshot"
                   "T%d (begin %Ld) observed future version %Ld of %s:%d" r.F.ft_id r.F.ft_begin
                   rd.F.r_observed rd.F.r_table rd.F.r_oid);
            (* rule 2: the observed version is the newest committed one at
               the snapshot — no committed write lands in between *)
            match Hashtbl.find_opt writes (rd.F.r_table, rd.F.r_oid) with
            | None -> ()
            | Some l ->
              List.iter
                (fun (ts, w) ->
                  if
                    w <> r.F.ft_id
                    && Int64.compare ts rd.F.r_observed > 0
                    && Int64.compare ts r.F.ft_begin <= 0
                  then
                    add
                      (Violation.make "snapshot"
                         "T%d (begin %Ld) observed stale version %Ld of %s:%d despite T%d's \
                          commit at %Ld"
                         r.F.ft_id r.F.ft_begin rd.F.r_observed rd.F.r_table rd.F.r_oid w ts))
                l)
          r.F.ft_reads
      end)
    txns;
  List.rev !out

let version_chains eng =
  let out = ref [] in
  List.iter
    (fun table ->
      Storage.Table.iter table (fun tuple ->
          if
            (not (Storage.Version.well_formed tuple.Storage.Tuple.chain))
            && List.length !out < 20
          then
            out :=
              Violation.make "version-chain" "malformed version chain at %s:%d"
                (Storage.Table.name table) tuple.Storage.Tuple.oid
              :: !out))
    (Storage.Engine.tables eng);
  List.rev !out

(* --- TPC-C consistency ------------------------------------------------- *)

let committed_rows table =
  let rows = ref [] in
  Storage.Table.iter table (fun tuple ->
      match Storage.Tuple.read_committed tuple with
      | Some row -> rows := row :: !rows
      | None -> ());
  !rows

let tpcc_consistency (db : Workload.Tpcc_db.t) =
  let out = ref [] in
  let add v = if List.length !out < 50 then out := v :: !out in
  let feq a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 (Float.abs a) in
  (* warehouse YTD vs district YTD *)
  let d_ytd = Hashtbl.create 16 in
  List.iter
    (fun row ->
      let w = Value.int_exn row Sc.D.w_id in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt d_ytd w) in
      Hashtbl.replace d_ytd w (prev +. Value.float_exn row Sc.D.ytd))
    (committed_rows db.Workload.Tpcc_db.district);
  List.iter
    (fun row ->
      let w = Value.int_exn row Sc.W.id in
      let wy = Value.float_exn row Sc.W.ytd in
      let dy = Option.value ~default:0.0 (Hashtbl.find_opt d_ytd w) in
      if not (feq wy dy) then
        add (Violation.make "tpcc" "warehouse %d: W_YTD %.2f <> sum of D_YTD %.2f" w wy dy))
    (committed_rows db.Workload.Tpcc_db.warehouse);
  (* per-district order-id bookkeeping *)
  let module M = Map.Make (struct
    type t = int * int

    let compare = compare
  end) in
  let orders = ref M.empty in
  (* (w, d) -> (max o_id, count, sum ol_cnt) *)
  List.iter
    (fun row ->
      let key = (Value.int_exn row Sc.O.w_id, Value.int_exn row Sc.O.d_id) in
      let o = Value.int_exn row Sc.O.id in
      let cnt = Value.int_exn row Sc.O.ol_cnt in
      let mx, n, ol = Option.value ~default:(0, 0, 0) (M.find_opt key !orders) in
      orders := M.add key (max mx o, n + 1, ol + cnt) !orders)
    (committed_rows db.Workload.Tpcc_db.orders);
  let new_orders = ref M.empty in
  (* (w, d) -> (min, max, count) *)
  List.iter
    (fun row ->
      let key = (Value.int_exn row Sc.NO.w_id, Value.int_exn row Sc.NO.d_id) in
      let o = Value.int_exn row Sc.NO.o_id in
      new_orders :=
        M.update key
          (function
            | None -> Some (o, o, 1)
            | Some (lo, hi, n) -> Some (min lo o, max hi o, n + 1))
          !new_orders)
    (committed_rows db.Workload.Tpcc_db.new_order);
  let ol_counts = ref M.empty in
  List.iter
    (fun row ->
      let key = (Value.int_exn row Sc.OL.w_id, Value.int_exn row Sc.OL.d_id) in
      ol_counts :=
        M.update key (function None -> Some 1 | Some n -> Some (n + 1)) !ol_counts)
    (committed_rows db.Workload.Tpcc_db.order_line);
  List.iter
    (fun row ->
      let w = Value.int_exn row Sc.D.w_id and d = Value.int_exn row Sc.D.id in
      let next_o = Value.int_exn row Sc.D.next_o_id in
      let mx, _, sum_ol = Option.value ~default:(0, 0, 0) (M.find_opt (w, d) !orders) in
      if mx <> next_o - 1 then
        add
          (Violation.make "tpcc" "district (%d,%d): D_NEXT_O_ID-1 = %d but max(O_ID) = %d" w d
             (next_o - 1) mx);
      (match M.find_opt (w, d) !new_orders with
      | None -> ()
      | Some (lo, hi, n) ->
        if hi <> mx then
          add
            (Violation.make "tpcc" "district (%d,%d): max(NO_O_ID) = %d but max(O_ID) = %d" w d
               hi mx);
        if hi - lo + 1 <> n then
          add
            (Violation.make "tpcc"
               "district (%d,%d): new_order ids not contiguous (min %d max %d count %d)" w d lo
               hi n));
      let ol = Option.value ~default:0 (M.find_opt (w, d) !ol_counts) in
      if sum_ol <> ol then
        add
          (Violation.make "tpcc"
             "district (%d,%d): sum of O_OL_CNT = %d but %d order_line rows" w d sum_ol ol))
    (committed_rows db.Workload.Tpcc_db.district);
  List.rev !out

(* Request conservation: every generated request must be in exactly one
   terminal or pending bucket at the horizon, or have died with a killed
   primary.  Admission drops never create a request (the generator is not
   called past the cap), so they are not a ledger term — only a separate
   counter. *)
let request_conservation (r : Preemptdb.Runner.result) =
  let out = ref [] in
  let add v = out := v :: !out in
  let m = r.Preemptdb.Runner.metrics in
  let committed = Preemptdb.Metrics.committed_total m in
  let aborted = Preemptdb.Metrics.aborted_total m in
  let shed = Preemptdb.Metrics.shed_total m in
  let exhausted = Preemptdb.Metrics.exhausted_total m in
  let generated =
    r.Preemptdb.Runner.generated_hp + r.Preemptdb.Runner.generated_lp
    + r.Preemptdb.Runner.generated_gc
  in
  let accounted =
    committed + aborted + shed + r.Preemptdb.Runner.backlog_left
    + r.Preemptdb.Runner.queued_left + r.Preemptdb.Runner.inflight_left
    + r.Preemptdb.Runner.dropped_at_kill
  in
  if accounted <> generated then
    add
      (Violation.make "request-conservation"
         "generated %d <> accounted %d (committed %d + aborted %d + shed %d + backlog %d \
          + queued %d + inflight %d + dropped at kill %d)"
         generated accounted committed aborted shed r.Preemptdb.Runner.backlog_left
         r.Preemptdb.Runner.queued_left r.Preemptdb.Runner.inflight_left
         r.Preemptdb.Runner.dropped_at_kill);
  if shed <> r.Preemptdb.Runner.shed then
    add
      (Violation.make "request-conservation"
         "per-class shed total %d <> scheduler shed count %d" shed
         r.Preemptdb.Runner.shed);
  if exhausted > aborted then
    add
      (Violation.make "request-conservation"
         "exhausted %d exceeds terminal aborts %d" exhausted aborted);
  if r.Preemptdb.Runner.workers.Preemptdb.Runner.exhausted <> exhausted then
    add
      (Violation.make "request-conservation"
         "worker exhausted total %d <> metrics exhausted total %d"
         r.Preemptdb.Runner.workers.Preemptdb.Runner.exhausted exhausted);
  List.rev !out

(* Reclaim safety: decided purely from the audit trail, independently of
   the epoch arithmetic it is checking.  An unlink is unsafe iff some
   snapshot live at that moment could have read a dropped version — i.e.
   it lies at or above the oldest dropped timestamp but strictly below the
   kept version's timestamp (at [kept_ts] and above, the reader sees the
   kept version or something newer). *)
let reclaim_safety (audits : Maint.Reclaimer.audit list) =
  let out = ref [] in
  let add v = if List.length !out < 100 then out := v :: !out in
  List.iter
    (fun (au : Maint.Reclaimer.audit) ->
      if Int64.compare au.Maint.Reclaimer.au_kept_ts au.Maint.Reclaimer.au_boundary > 0 then
        add
          (Violation.make "reclaim-safety"
             "%s:%d kept version %Ld is above the reclaim boundary %Ld"
             au.Maint.Reclaimer.au_table au.Maint.Reclaimer.au_oid
             au.Maint.Reclaimer.au_kept_ts au.Maint.Reclaimer.au_boundary);
      List.iter
        (fun d ->
          if Int64.compare d au.Maint.Reclaimer.au_kept_ts >= 0 then
            add
              (Violation.make "reclaim-safety"
                 "%s:%d dropped version %Ld is not older than the kept version %Ld"
                 au.Maint.Reclaimer.au_table au.Maint.Reclaimer.au_oid d
                 au.Maint.Reclaimer.au_kept_ts))
        au.Maint.Reclaimer.au_dropped;
      match au.Maint.Reclaimer.au_dropped with
      | [] -> ()
      | dropped ->
        let d_min = List.fold_left Int64.min (List.hd dropped) dropped in
        List.iter
          (fun s ->
            if
              Int64.compare s d_min >= 0
              && Int64.compare s au.Maint.Reclaimer.au_kept_ts < 0
            then
              add
                (Violation.make "reclaim-safety"
                   "%s:%d unlinked versions down to %Ld while snapshot %Ld (below kept %Ld) \
                    was live"
                   au.Maint.Reclaimer.au_table au.Maint.Reclaimer.au_oid d_min s
                   au.Maint.Reclaimer.au_kept_ts))
          au.Maint.Reclaimer.au_active)
    audits;
  List.rev !out
