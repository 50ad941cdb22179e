(* Tests for the durability subsystem: the simulated log device's cost
   model, the global redo log (per-worker buffer overflows) and its engine
   hooks, the pipelined group-commit daemon
   (batching bounds, park/ack, torn-tail crash), fuzzy checkpoints and
   ARIES-lite recovery. *)

module Value = Storage.Value
module Engine = Storage.Engine
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module Txn = Storage.Txn
module Device = Durability.Device
module Log = Durability.Log
module Daemon = Durability.Daemon
module Checkpoint = Durability.Checkpoint
module Recovery = Durability.Recovery
module P = Workload.Program

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let row i = Value.of_fields [| Value.Int i |]

let mk_engine () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "accounts" in
  (eng, table)

let seed_row eng table v =
  let txn = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  let tuple = Engine.insert eng txn table (row v) in
  (match Engine.commit eng txn with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "seed commit failed");
  tuple.Tuple.oid

let read_int eng txn table oid =
  match Engine.read eng txn table ~oid with
  | Some r -> Value.int_exn r 0
  | None -> -1

(* Commit one update and return the transaction (its [commit_lsn] is the
   marker the daemon acks). *)
let commit_update eng table oid v =
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng t table ~oid (row v) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update");
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  t

(* Force-flush everything appended so far (the clean-shutdown idiom). *)
let flush_all log =
  let _, upto, _, _ = Log.drain_all log in
  Log.set_durable log upto

(* -- Device ------------------------------------------------------------------ *)

let test_device_cost_model () =
  let d = Device.create ~setup_cycles:1000 ~per_byte_cycles_x100:100 ~fsync_floor_cycles:5000L () in
  (* small flush on an idle device: the fsync floor dominates *)
  Alcotest.(check int64) "floor dominates" 5000L (Device.submit d ~now:0L ~bytes:100);
  (* large flush once idle again: setup + bytes * 1 cycle/byte *)
  Alcotest.(check int64) "bandwidth term" 11000L
    (Int64.sub (Device.submit d ~now:5000L ~bytes:10_000) 5000L);
  checkb "negative param rejected" true
    (match Device.create ~setup_cycles:(-1) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_device_serializes_flushes () =
  let d = Device.create ~setup_cycles:0 ~per_byte_cycles_x100:0 ~fsync_floor_cycles:100L () in
  let c1 = Device.submit d ~now:0L ~bytes:10 in
  Alcotest.(check int64) "first completes at floor" 100L c1;
  (* submitted while busy: queues behind busy_until *)
  let c2 = Device.submit d ~now:50L ~bytes:10 in
  Alcotest.(check int64) "second queues" 200L c2;
  (* submitted after idle: starts at now *)
  let c3 = Device.submit d ~now:500L ~bytes:10 in
  Alcotest.(check int64) "idle start" 600L c3;
  checki "flushes counted" 3 (Device.flushes d);
  Alcotest.(check int64) "bytes counted" 30L (Device.bytes_written d);
  Alcotest.(check int64) "busy cycles" 300L (Device.busy_cycles d)

(* -- Log + engine hooks -------------------------------------------------------- *)

let mk_logged_engine () =
  let eng, table = mk_engine () in
  let log = Log.create ~n_workers:1 () in
  Log.attach log eng;
  Log.snapshot_base log eng;
  (eng, table, log)

let test_log_commit_marker_contiguity () =
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 10 in
  let t1 = commit_update eng table oid 11 in
  let t2 = commit_update eng table oid 12 in
  checki "three commits logged (seed + two updates)" 3 (Log.committed log);
  let check_txn (t : Txn.t) =
    let marker = Option.get t.Txn.commit_lsn in
    let m = Log.entry log marker in
    checkb "marker record" true (Log.is_marker m);
    checki "marker txn id" t.Txn.id m.Log.txn_id;
    (* the record just before the marker belongs to the same txn: the
       append is atomic, so records + marker are contiguous *)
    let prev = Log.entry log (marker - 1) in
    checki "contiguous records" t.Txn.id prev.Log.txn_id
  in
  check_txn t1;
  check_txn t2;
  checkb "marker LSNs increase" true
    (Option.get t1.Txn.commit_lsn < Option.get t2.Txn.commit_lsn);
  checki "no open reservations" 0 (Log.open_reservations log)

let test_log_abort_releases_reservation () =
  (* The satellite edge case: every abort path must release the commit
     reservation (the park registration's log-side twin). *)
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 1 in
  (* abort after commit_begin (reservation held) *)
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng t table ~oid (row 2) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update");
  Engine.commit_begin eng t;
  checki "reservation open" 1 (Log.open_reservations log);
  Engine.abort eng t;
  checki "abort released it" 0 (Log.open_reservations log);
  (* an abort before commit-begin never reserved: releasing is harmless *)
  let t' = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  Engine.abort eng t';
  checki "unreserved abort harmless" 0 (Log.open_reservations log);
  (* first-committer-wins loser also releases on its error path *)
  let a = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  let b = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng a table ~oid (row 3) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update a");
  (match Engine.update eng b table ~oid (row 4) with
  | Ok () -> Alcotest.fail "b must lose first-updater-wins"
  | Error _ -> Engine.abort eng b);
  (match Engine.commit eng a with Ok _ -> () | Error _ -> Alcotest.fail "commit a");
  checki "loser left nothing open" 0 (Log.open_reservations log);
  checkb "winner logged" true (Log.committed log >= 2)

let test_log_buffer_overflows () =
  (* Each worker's redo buffer holds 4096 records between drains; the
     append that finds it full forces an emergency drain, counted once. *)
  let eng = Engine.create () in
  let log = Log.create ~n_workers:2 () in
  Log.attach log eng;
  (* one DDL record, on worker 0 *)
  let table = Engine.create_table eng "accounts" in
  (* two records per commit: the insert and its marker *)
  let commits ~worker n =
    for i = 1 to n do
      let t = Engine.begin_txn eng ~worker ~ctx:0 in
      ignore (Engine.insert eng t table (row i));
      match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit"
    done
  in
  commits ~worker:0 2047;
  checki "4095 records fit" 0 (Log.buffer_overflows log);
  commits ~worker:0 1;
  checki "the 4097th overflows" 1 (Log.buffer_overflows log);
  commits ~worker:1 2047;
  checki "worker 1 has its own buffer" 1 (Log.buffer_overflows log);
  commits ~worker:0 2048;
  checki "an overflow restarts the count" 2 (Log.buffer_overflows log);
  ignore (Log.drain_all log);
  commits ~worker:1 2048;
  checki "a drain empties every buffer" 2 (Log.buffer_overflows log);
  commits ~worker:1 1;
  checki "the next append overflows" 3 (Log.buffer_overflows log);
  (* the record that overflowed starts the emptied buffer *)
  commits ~worker:1 2047;
  checki "4096 records since the overflow fit" 3 (Log.buffer_overflows log)

let test_log_json_roundtrip () =
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 5 in
  ignore (commit_update eng table oid 6);
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.delete eng t table ~oid with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete");
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  (* a row whose first field is a Float, with a Str *)
  let flat = Value.of_fields [| Value.Float 0.1; Value.Str "flat \"row\""; Value.Int (-3) |] in
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  ignore (Engine.insert eng t table flat);
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  flush_all log;
  let s = Log.to_string log in
  match Log.of_string s with
  | Error e -> Alcotest.fail ("of_string: " ^ e)
  | Ok log' ->
    let payloads l = List.map (fun r -> r.Log.payload) (Log.durable_entries l) in
    checkb "the flat row was logged" true
      (List.exists (Option.equal Value.equal (Some flat)) (payloads log));
    checkb "payloads reload equal" true
      (List.equal (Option.equal Value.equal) (payloads log) (payloads log'));
    checki "durable lsn" (Log.durable_lsn log) (Log.durable_lsn log');
    checki "next lsn" (Log.next_lsn log) (Log.next_lsn log');
    checki "durable entries"
      (List.length (Log.durable_entries log))
      (List.length (Log.durable_entries log'));
    Alcotest.(check (list string)) "catalog" (Log.catalog log) (Log.catalog log');
    (* the reloaded log recovers to the same state *)
    checkb "recovery agrees" true
      (Recovery.durable_state_equal (Recovery.recover log) (Recovery.recover log'))

(* -- Group-commit daemon -------------------------------------------------------- *)

let mk_daemon ?(group_bytes = 1 lsl 20) ?(group_interval = 2_000L) () =
  let des = Sim.Des.create () in
  let eng, table = mk_engine () in
  let log = Log.create ~n_workers:1 () in
  Log.attach log eng;
  Log.snapshot_base log eng;
  let device =
    Device.create ~setup_cycles:100 ~per_byte_cycles_x100:10 ~fsync_floor_cycles:500L ()
  in
  let daemon =
    Daemon.create ~des ~log ~device ~group_bytes ~group_interval ()
  in
  Daemon.start daemon;
  (des, eng, table, log, daemon)

let test_daemon_group_commit_batching () =
  (* Many commits land within one sweep interval: the daemon batches them
     into far fewer flushes, and a lone commit waits at most one
     interval. *)
  let des, eng, table, log, daemon = mk_daemon () in
  let oid = ref (-1) in
  Sim.Des.schedule_at des ~time:1L (fun _ -> oid := seed_row eng table 0);
  for i = 1 to 40 do
    Sim.Des.schedule_at des
      ~time:(Int64.of_int (10 + i))
      (fun _ -> ignore (commit_update eng table !oid i))
  done;
  Sim.Des.run ~until:100_000L des;
  checkb "flushed at least once" true (Daemon.flushes daemon >= 1);
  checkb "batched: far fewer flushes than commits" true (Daemon.flushes daemon <= 10);
  checki "everything durable" (Log.next_lsn log) (Log.durable_lsn log)

let test_daemon_ack_rule () =
  let des, eng, table, log, daemon = mk_daemon () in
  let lsn = ref (-1) in
  Sim.Des.schedule_at des ~time:1L (fun _ ->
      let oid = seed_row eng table 0 in
      let t = commit_update eng table oid 1 in
      lsn := Option.get t.Txn.commit_lsn;
      (* nothing flushed yet: the ack must be refused *)
      checkb "not yet durable" false (Daemon.try_ack daemon ~lsn:!lsn));
  Sim.Des.run ~until:100_000L des;
  checkb "durable after the sweep" true (Log.durable_lsn log > !lsn);
  checkb "ack now granted" true (Daemon.try_ack daemon ~lsn:!lsn);
  checki "acks recorded" 1 (Daemon.acked_count daemon);
  checki "no ack violations" 0 (Daemon.ack_violations daemon)

let test_daemon_park_unpark () =
  let des, eng, table, _log, daemon = mk_daemon () in
  let notified_at = ref (-1L) in
  Sim.Des.schedule_at des ~time:1L (fun des ->
      let oid = seed_row eng table 0 in
      let t = commit_update eng table oid 1 in
      let lsn = Option.get t.Txn.commit_lsn in
      Daemon.park daemon ~lsn ~notify:(fun () -> notified_at := Sim.Des.now des);
      checki "one waiter" 1 (Daemon.waiting daemon));
  Sim.Des.run ~until:100_000L des;
  checkb "flush completion notified the waiter" true (!notified_at > 1L);
  checki "no waiters left" 0 (Daemon.waiting daemon);
  checkb "park recorded the ack" true (Daemon.acked_count daemon >= 1)

let test_daemon_crash_torn_tail () =
  let des, eng, table, log, daemon = mk_daemon () in
  let dropped = ref false in
  let durable_before = ref 0 in
  Sim.Des.schedule_at des ~time:1L (fun _ ->
      let oid = seed_row eng table 0 in
      for i = 1 to 10 do
        ignore (commit_update eng table oid i)
      done);
  (* crash long before the first sweep: everything is still pending *)
  Sim.Des.schedule_at des ~time:500L (fun _ ->
      let t = commit_update eng table 0 99 in
      Daemon.park daemon ~lsn:(Option.get t.Txn.commit_lsn) ~notify:(fun () ->
          dropped := true);
      durable_before := Log.durable_lsn log;
      Daemon.crash daemon ~rng:(Sim.Rng.create 7L));
  Sim.Des.run ~until:200_000L des;
  checkb "crashed" true (Daemon.crashed daemon);
  checkb "durable only advances" true (Log.durable_lsn log >= !durable_before);
  checkb "durable within the log" true (Log.durable_lsn log <= Log.next_lsn log);
  checkb "waiter dropped without notify" true (not !dropped);
  checki "no waiters after crash" 0 (Daemon.waiting daemon);
  checkb "acks refused after crash" false (Daemon.try_ack daemon ~lsn:0);
  checkb "losses counted" true (Daemon.lost_at_crash daemon > 0);
  (* the torn tail still recovers to a consistent prefix *)
  let recovered = Recovery.recover log in
  checkb "recovered engine has the table" true
    (match Engine.table recovered "accounts" with
    | (_ : Table.t) -> true
    | exception Not_found -> false)

(* -- Recovery ------------------------------------------------------------------- *)

let test_recovery_roundtrip () =
  let eng, table, log = mk_logged_engine () in
  let oid1 = seed_row eng table 10 in
  let oid2 = seed_row eng table 20 in
  ignore (commit_update eng table oid1 99);
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.delete eng t table ~oid:oid2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete");
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  flush_all log;
  let recovered, stats = Recovery.recover_with_stats log in
  checkb "states equal" true (Recovery.durable_state_equal eng recovered);
  checkb "replayed from base" true (not stats.Recovery.rec_from_ckpt);
  checkb "txns applied" true (stats.Recovery.rec_txns_applied >= 2);
  let table' = Engine.table recovered "accounts" in
  let r = Engine.begin_txn recovered ~worker:0 ~ctx:0 in
  checki "updated value recovered" 99 (read_int recovered r table' oid1);
  checkb "tombstone recovered" true (Engine.read recovered r table' ~oid:oid2 = None);
  Engine.abort recovered r

let test_recovery_loses_unflushed () =
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 1 in
  ignore (commit_update eng table oid 2);
  flush_all log;
  ignore (commit_update eng table oid 3) (* crashed before flushing this one *);
  let recovered = Recovery.recover log in
  let table' = Engine.table recovered "accounts" in
  let r = Engine.begin_txn recovered ~worker:0 ~ctx:0 in
  checki "unflushed commit lost" 2 (read_int recovered r table' oid);
  Engine.abort recovered r;
  checkb "recovered differs from crashed in-memory state" true
    (not (Recovery.durable_state_equal eng recovered))

let test_recovery_torn_marker_atomicity () =
  (* Records durable, commit marker lost: the transaction must leave no
     partial effects. *)
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 1 in
  flush_all log;
  let t = commit_update eng table oid 2 in
  let marker = Option.get t.Txn.commit_lsn in
  ignore (Log.drain_all log);
  Log.set_durable log marker (* marker itself NOT durable: [first, marker) *);
  let recovered, stats = Recovery.recover_with_stats log in
  checki "torn txn detected" 1 stats.Recovery.rec_txns_torn;
  let table' = Engine.table recovered "accounts" in
  let r = Engine.begin_txn recovered ~worker:0 ~ctx:0 in
  checki "torn txn's write invisible" 1 (read_int recovered r table' oid);
  Engine.abort recovered r

let test_recovery_oid_gaps () =
  let eng, table, log = mk_logged_engine () in
  let _oid0 = seed_row eng table 1 in
  (* an aborted insert leaves an OID gap *)
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  ignore (Engine.insert eng t table (row 42));
  Engine.abort eng t;
  let oid2 = seed_row eng table 3 in
  flush_all log;
  let recovered = Recovery.recover log in
  checkb "states equal across gap" true (Recovery.durable_state_equal eng recovered);
  let table' = Engine.table recovered "accounts" in
  let r = Engine.begin_txn recovered ~worker:0 ~ctx:0 in
  checki "row after gap recovered at same oid" 3 (read_int recovered r table' oid2);
  Engine.abort recovered r

(* A resolved in-doubt 2PC transaction installs at its global decision
   timestamp (>= 10^9), so recovery must resume the commit-timestamp
   counter in one step, not by drawing every timestamp below it. *)
let test_recovery_finish_far_timestamp () =
  let ap = Recovery.Applier.create () in
  let far = 1_000_000_000_000L in
  Recovery.Applier.create_table ap "accounts";
  ignore (Recovery.Applier.load_image ap [ ("accounts", [ (0, Some (row 7), far) ]) ]);
  Recovery.Applier.finish ap;
  let ts = Engine.timestamp (Recovery.Applier.engine ap) in
  Alcotest.(check int64) "counter resumed at the image maximum" far (Storage.Timestamp.current ts);
  Alcotest.(check int64) "next timestamp lies past it" (Int64.succ far) (Storage.Timestamp.next ts)

let test_recovery_ddl_replay () =
  (* tables created after the base snapshot reappear through DDL records *)
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 1 in
  ignore (commit_update eng table oid 2);
  let late = Engine.create_table eng "late" in
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  ignore (Engine.insert eng t late (row 7));
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  flush_all log;
  let recovered, stats = Recovery.recover_with_stats log in
  checki "base table + ddl-replayed table" 2 stats.Recovery.rec_tables_created;
  checkb "late table exists" true
    (match Engine.table recovered "late" with
    | (_ : Table.t) -> true
    | exception Not_found -> false);
  checkb "states equal with late table" true (Recovery.durable_state_equal eng recovered)

(* A standby's applier overwrites a tuple's one committed version with each
   newer commit instead of prepending.  Re-fed records (a duplicated
   delivery, or the overlap a NAK re-request resends) must land in place,
   and the applied state must still match recovery and the primary. *)
let test_recovery_applier_one_version () =
  let eng, table, log = mk_logged_engine () in
  let oid1 = seed_row eng table 1 in
  let oid2 = seed_row eng table 2 in
  for v = 3 to 6 do
    ignore (commit_update eng table oid1 v)
  done;
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.delete eng t table ~oid:oid2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "delete");
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  (* re-insert over the tombstone *)
  ignore (commit_update eng table oid2 7);
  ignore (commit_update eng table oid1 8);
  flush_all log;
  let records = Log.durable_entries log in
  let from k = List.filteri (fun i _ -> i >= k) records in
  let upto k = List.filteri (fun i _ -> i < k) records in
  let half = List.length records / 2 in
  let recovered = Recovery.recover log in
  List.iter
    (fun (name, feed) ->
      let ap = Recovery.Applier.create () in
      List.iter (Recovery.Applier.create_table ap) (Log.catalog log);
      ignore (Recovery.Applier.load_image ap (Log.base log));
      List.iter (Recovery.Applier.feed ap) feed;
      Recovery.Applier.finish ap;
      let applied = Recovery.Applier.engine ap in
      List.iter
        (fun tb ->
          Table.iter tb (fun tuple ->
              checkb
                (Printf.sprintf "%s: oid %d holds at most one version" name tuple.Tuple.oid)
                true
                (Version.chain_length (Tuple.head tuple) <= 1)))
        (Engine.tables applied);
      checkb (name ^ ": equals recovery") true (Recovery.durable_state_equal applied recovered);
      checkb (name ^ ": equals the primary") true (Recovery.durable_state_equal applied eng))
    [
      ("duplicated prefix", upto half @ records);
      ("overlapping re-feed", upto (half + 3) @ from half);
    ]

(* -- Fuzzy checkpoint ------------------------------------------------------------ *)

let drive prog env =
  let rec go = function
    | P.Finished outcome -> outcome
    | P.Pending (_, k) -> go (P.resume k)
  in
  go (P.start prog env)

let mk_env eng =
  {
    P.eng;
    worker = 0;
    ctx = 0;
    cls = Uintr.Cls.create_area ();
    rng = Sim.Rng.create 123L;
  }

let test_checkpoint_pass_and_recovery () =
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 1 in
  for i = 2 to 50 do
    ignore (commit_update eng table oid i)
  done;
  let ck = Checkpoint.create ~chunk_tuples:16 ~eng ~log () in
  let env = mk_env eng in
  (* run chunks until one full pass publishes; commits land mid-pass (the
     pass is fuzzy) *)
  let fuel = ref 100 in
  while Checkpoint.passes ck = 0 && !fuel > 0 do
    decr fuel;
    ignore (drive (Checkpoint.chunk_program ck) env);
    ignore (commit_update eng table oid (1000 + !fuel))
  done;
  checkb "a pass completed" true (Checkpoint.passes ck >= 1);
  checkb "chunked" true (Checkpoint.chunks ck > 1);
  (match Log.checkpoint log with
  | None -> Alcotest.fail "checkpoint not installed"
  | Some (start_lsn, _) -> checkb "start lsn recorded" true (start_lsn > 0));
  flush_all log;
  let recovered, stats = Recovery.recover_with_stats log in
  checkb "recovered from the checkpoint" true stats.Recovery.rec_from_ckpt;
  checkb "fuzzy image + replay converge" true
    (Recovery.durable_state_equal eng recovered)

let test_checkpoint_empty_tables () =
  (* With every table empty there is no range to claim: the sweep's lap
     guard ends the chunk after one pass instead of republishing forever. *)
  let eng = Engine.create () in
  ignore (Engine.create_table eng "a");
  ignore (Engine.create_table eng "b");
  let log = Log.create ~n_workers:1 () in
  Log.attach log eng;
  Log.snapshot_base log eng;
  let ck = Checkpoint.create ~eng ~log () in
  ignore (drive (Checkpoint.chunk_program ck) (mk_env eng));
  checki "one pass" 1 (Checkpoint.passes ck);
  checki "no tuples" 0 (Checkpoint.tuples_scanned ck);
  match Log.checkpoint log with
  | None -> Alcotest.fail "checkpoint not installed"
  | Some (_, image) ->
    Alcotest.(check (list string)) "both tables in the image" [ "a"; "b" ]
      (List.map fst image)

(* -- durable_state_equal edge cases ---------------------------------------------- *)

let test_state_equal_tombstone_only_table () =
  (* A table whose every row was deleted: the comparator treats a
     tombstone as absence, so the table compares equal through recovery
     even though its slots still hold version chains — and a later insert
     on the live side alone is detected. *)
  let eng, table, log = mk_logged_engine () in
  let oids = [ seed_row eng table 1; seed_row eng table 2 ] in
  List.iter
    (fun oid ->
      let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
      (match Engine.delete eng t table ~oid with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "delete");
      match Engine.commit eng t with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "commit")
    oids;
  flush_all log;
  let recovered = Recovery.recover log in
  checkb "tombstone-only table equal through recovery" true
    (Recovery.durable_state_equal eng recovered);
  ignore (seed_row eng table 3);
  checkb "live row against a tombstone-only table detected" true
    (not (Recovery.durable_state_equal eng recovered))

let test_state_equal_never_committed_slots () =
  (* Aborted inserts allocate tuple slots that never hold a committed
     version; recovery never allocates them at all.  The comparator must
     ignore the allocation skew while keeping committed rows at their
     original OIDs on both sides. *)
  let eng, table, log = mk_logged_engine () in
  ignore (seed_row eng table 1);
  for i = 0 to 4 do
    let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
    ignore (Engine.insert eng t table (row (100 + i)));
    Engine.abort eng t
  done;
  let oid = seed_row eng table 2 in
  flush_all log;
  let recovered = Recovery.recover log in
  checkb "never-committed slots ignored" true
    (Recovery.durable_state_equal eng recovered);
  let table' = Engine.table recovered "accounts" in
  let r = Engine.begin_txn recovered ~worker:0 ~ctx:0 in
  checki "row after the slot gap kept its oid" 2 (read_int recovered r table' oid);
  Engine.abort recovered r

let test_state_equal_table_after_checkpoint () =
  (* A table created after the checkpoint image was published exists only
     as a DDL record past the checkpoint's start LSN: recovery must
     rebuild it, and the comparator must see both its presence and its
     rows.  An engine lacking the late table fails the name check. *)
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 1 in
  let ck = Checkpoint.create ~chunk_tuples:16 ~eng ~log () in
  let env = mk_env eng in
  let fuel = ref 100 in
  while Checkpoint.passes ck = 0 && !fuel > 0 do
    decr fuel;
    ignore (drive (Checkpoint.chunk_program ck) env)
  done;
  checkb "a pass completed" true (Checkpoint.passes ck >= 1);
  let late = Engine.create_table eng "post_ckpt" in
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  ignore (Engine.insert eng t late (row 7));
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  ignore (commit_update eng table oid 2);
  flush_all log;
  let recovered, stats = Recovery.recover_with_stats log in
  checkb "recovered from the checkpoint" true stats.Recovery.rec_from_ckpt;
  checkb "post-checkpoint table equal through recovery" true
    (Recovery.durable_state_equal eng recovered);
  let bare = Engine.create () in
  ignore (Engine.create_table bare "accounts");
  checkb "missing table detected" true
    (not (Recovery.durable_state_equal eng bare))

(* -- Properties ------------------------------------------------------------------ *)

let prop_recovery_roundtrip =
  QCheck2.Test.make ~name:"recovery after a full flush reproduces committed state"
    ~count:50
    QCheck2.Gen.(list_size (int_range 1 60) (pair (int_bound 2) (int_bound 9)))
    (fun ops ->
      let eng, table, log = mk_logged_engine () in
      let oids = ref [] in
      List.iter
        (fun (op, v) ->
          let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
          (match (op, !oids) with
          | 0, _ ->
            let tuple = Engine.insert eng t table (row v) in
            oids := tuple.Tuple.oid :: !oids
          | 1, oid :: _ -> (
            match Engine.update eng t table ~oid (row (v + 100)) with
            | Ok () -> ()
            | Error _ -> ())
          | _, oid :: _ -> (
            match Engine.delete eng t table ~oid with Ok () -> () | Error _ -> ())
          | _, [] -> ());
          match Engine.commit eng t with Ok _ -> () | Error _ -> ())
        ops;
      flush_all log;
      Recovery.durable_state_equal eng (Recovery.recover log))

let prop_fuzzed_crash_point =
  QCheck2.Test.make
    ~name:"any durable prefix recovers to the last durable commit" ~count:60
    QCheck2.Gen.(pair (int_range 1 30) (int_range 0 1000))
    (fun (n_commits, cut) ->
      (* the seed row predates the log: it lives in the base image, so it
         exists (value 0) at every crash point *)
      let eng, table = mk_engine () in
      let oid = seed_row eng table 0 in
      let log = Log.create ~n_workers:1 () in
      Log.attach log eng;
      Log.snapshot_base log eng;
      (* commit i writes value i; markers are strictly increasing *)
      let markers =
        List.init n_commits (fun i ->
            let t = commit_update eng table oid (i + 1) in
            (Option.get t.Txn.commit_lsn, i + 1))
      in
      ignore (Log.drain_all log);
      (* tear at an arbitrary point of the appended log *)
      let durable = cut mod (Log.next_lsn log + 1) in
      Log.set_durable log durable;
      let recovered = Recovery.recover log in
      let expected =
        List.fold_left
          (fun acc (marker, v) -> if marker < durable then v else acc)
          0 markers
      in
      let table' = Engine.table recovered "accounts" in
      let r = Engine.begin_txn recovered ~worker:0 ~ctx:0 in
      let got = read_int recovered r table' oid in
      Engine.abort recovered r;
      got = expected)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "durability"
    [
      ( "device",
        [
          Alcotest.test_case "cost model" `Quick test_device_cost_model;
          Alcotest.test_case "serializes flushes" `Quick test_device_serializes_flushes;
        ] );
      ( "log",
        [
          Alcotest.test_case "marker contiguity" `Quick test_log_commit_marker_contiguity;
          Alcotest.test_case "abort releases reservation" `Quick
            test_log_abort_releases_reservation;
          Alcotest.test_case "json roundtrip" `Quick test_log_json_roundtrip;
          Alcotest.test_case "buffer overflows per worker" `Quick test_log_buffer_overflows;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "group-commit batching" `Quick test_daemon_group_commit_batching;
          Alcotest.test_case "ack rule" `Quick test_daemon_ack_rule;
          Alcotest.test_case "park/unpark" `Quick test_daemon_park_unpark;
          Alcotest.test_case "crash tears the tail" `Quick test_daemon_crash_torn_tail;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "roundtrip" `Quick test_recovery_roundtrip;
          Alcotest.test_case "loses unflushed" `Quick test_recovery_loses_unflushed;
          Alcotest.test_case "torn marker atomicity" `Quick
            test_recovery_torn_marker_atomicity;
          Alcotest.test_case "oid gaps" `Quick test_recovery_oid_gaps;
          Alcotest.test_case "ddl replay" `Quick test_recovery_ddl_replay;
          Alcotest.test_case "finish resumes a far timestamp in one step" `Quick
            test_recovery_finish_far_timestamp;
          Alcotest.test_case "state-equal: tombstone-only table" `Quick
            test_state_equal_tombstone_only_table;
          Alcotest.test_case "state-equal: never-committed slots" `Quick
            test_state_equal_never_committed_slots;
          Alcotest.test_case "state-equal: table after checkpoint" `Quick
            test_state_equal_table_after_checkpoint;
        ]
        @ qsuite [ prop_recovery_roundtrip; prop_fuzzed_crash_point ]
        @ [
            Alcotest.test_case "applier keeps one version per tuple" `Quick
              test_recovery_applier_one_version;
          ] );
      ( "checkpoint",
        [
          Alcotest.test_case "fuzzy pass + recovery" `Quick
            test_checkpoint_pass_and_recovery;
          Alcotest.test_case "chunk over empty tables returns" `Quick
            test_checkpoint_empty_tables;
        ] );
    ]
