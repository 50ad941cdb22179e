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
    checkb "marker record" true (Log.kind_at log marker = Log.Commit_marker);
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

(* A dump with every member a loader reads: a base image, a checkpoint
   image, a catalog and write records with payloads. *)
let artifact () =
  let eng, table, log = mk_logged_engine () in
  let oid = seed_row eng table 5 in
  ignore (commit_update eng table oid 6);
  Log.install_checkpoint log ~start_lsn:(Log.next_lsn log)
    [ ("accounts", [ (oid, Some (row 6), 2L) ]) ];
  ignore (commit_update eng table oid 7);
  flush_all log;
  let eng', table' = mk_engine () in
  ignore (seed_row eng' table' 1);
  let with_base = Log.create ~n_workers:1 () in
  Log.snapshot_base with_base eng';
  (* the loaded log carries the first one's entries and the second's base *)
  let json =
    match Obs.Json.parse (Log.to_string log), Obs.Json.parse (Log.to_string with_base) with
    | Ok (Obs.Json.Obj fields), Ok (Obs.Json.Obj base_fields) ->
      Obs.Json.Obj
        (List.map
           (fun (k, v) -> if k = "base" then (k, List.assoc "base" base_fields) else (k, v))
           fields)
    | _ -> Alcotest.fail "dump does not parse"
  in
  (log, json)

let set_member key f = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj (List.map (fun (k, v) -> if k = key then (k, f v) else (k, v)) fields)
  | _ -> Alcotest.fail "not an object"

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* [edit] corrupts one member; loading must fail naming [names]. *)
let check_rejects what edit names () =
  let _, json = artifact () in
  (match Log.of_string (Obs.Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("the unedited artifact must load: " ^ e));
  match Log.of_string (Obs.Json.to_string (edit json)) with
  | Ok _ -> Alcotest.failf "a malformed %s was accepted" what
  | Error e ->
    List.iter
      (fun name -> checkb (Printf.sprintf "%S names %S" e name) true (contains e name))
      names

let bad_payload = Obs.Json.List [ Obs.Json.Obj [ ("x", Obs.Json.Int 1) ] ]

let first_write_lsn = ref (-1)

let corrupt_payload json =
  set_member "entries"
    (function
      | Obs.Json.List entries ->
        Obs.Json.List
          (List.mapi
             (fun i e ->
               match Obs.Json.member "payload" e with
               | Some (Obs.Json.List _) when !first_write_lsn < 0 || !first_write_lsn = i ->
                 first_write_lsn := i;
                 set_member "payload" (fun _ -> bad_payload) e
               | _ -> e)
             entries)
      | _ -> Alcotest.fail "entries")
    json

let test_rejects_bad_payload () =
  first_write_lsn := -1;
  check_rejects "payload" corrupt_payload [ "payload" ] ();
  checkb "a write record was edited" true (!first_write_lsn >= 0);
  check_rejects "payload" corrupt_payload
    [ Printf.sprintf "entry %d" !first_write_lsn ] ()

let test_rejects_bad_image_row () =
  check_rejects "image row"
    (set_member "base" (function
      | Obs.Json.List [ tbl ] ->
        Obs.Json.List
          [
            set_member "rows"
              (function
                | Obs.Json.List (r :: rest) ->
                  Obs.Json.List (set_member "payload" (fun _ -> bad_payload) r :: rest)
                | _ -> Alcotest.fail "rows")
              tbl;
          ]
      | _ -> Alcotest.fail "base"))
    [ "base"; "table accounts oid 0"; "payload" ] ()

let test_rejects_bad_catalog_entry () =
  check_rejects "catalog entry"
    (set_member "catalog" (function
      | Obs.Json.List names -> Obs.Json.List (names @ [ Obs.Json.Int 7 ])
      | _ -> Alcotest.fail "catalog"))
    [ "catalog entry 1" ] ()

let test_rejects_bad_base () =
  check_rejects "base" (set_member "base" (fun _ -> Obs.Json.Int 5)) [ "base" ] ()

let test_rejects_bad_ckpt () =
  check_rejects "ckpt"
    (set_member "ckpt" (set_member "start_lsn" (fun _ -> Obs.Json.String "x")))
    [ "ckpt" ] ()

let test_valid_dump_keeps_its_bytes () =
  let log, _ = artifact () in
  let s = Log.to_string log in
  match Log.of_string s with
  | Error e -> Alcotest.fail e
  | Ok log' -> Alcotest.(check string) "reloaded dump" s (Log.to_string log')

(* -- Memory budgets -------------------------------------------------------------- *)

(* Words reachable from [x] that no payload reaches: payload rows are
   leaves, so this is [x]'s own structure, whatever it shares with the
   engine the payloads came from. *)
let own_words x (payloads : Value.t list) =
  Obj.reachable_words (Obj.repr (x, payloads)) - Obj.reachable_words (Obj.repr payloads) - 3

let payloads_of log ~first ~upto =
  List.filter_map (fun lsn -> (Log.entry log lsn).Log.payload) (List.init (upto - first) (( + ) first))

(* 10 000 commits over three tables, two tables created midway and a 2PC
   prepare, install and decision every 500 commits. *)
let test_log_words_per_record () =
  let eng = Engine.create () in
  let log = Log.create ~n_workers:4 () in
  Log.attach log eng;
  let tables = Array.init 3 (fun i -> Engine.create_table eng (Printf.sprintf "t%d" i)) in
  Log.snapshot_base log eng;
  let write txn i =
    let tb = tables.(i mod 3) in
    if i <= 600 then ignore (Engine.insert eng txn tb (row i))
    else
      match Engine.update eng txn tb ~oid:(i mod 200) (row i) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "update"
  in
  for i = 1 to 10_000 do
    if i mod 5_000 = 0 then ignore (Engine.create_table eng (Printf.sprintf "late%d" i));
    let worker = i mod 4 in
    if i mod 500 = 0 then begin
      let txn = Engine.begin_txn eng ~worker ~ctx:0 in
      write txn i;
      ignore (Log.append_prepare log ~worker ~gid:i txn);
      Engine.abort eng txn;
      ignore (Log.append_twopc_install log ~worker ~gid:i ~commit_ts:(Int64.of_int i));
      ignore
        (Log.append_decision log ~worker ~gid:i ~commit_ts:(Int64.of_int i)
           ~participants:[ 0; 1 ])
    end;
    let txn = Engine.begin_txn eng ~worker ~ctx:0 in
    write txn i;
    match Engine.commit eng txn with Ok _ -> () | Error _ -> Alcotest.fail "commit"
  done;
  let n = Log.next_lsn log in
  let per = float_of_int (own_words log (payloads_of log ~first:0 ~upto:n)) /. float_of_int n in
  checkb (Printf.sprintf "%.2f words per record over %d records" per n) true (per <= 5.)

(* An applier after a 9 000-row image load, 3 000 updates and 1 000
   inserts, before [finish]. *)
let test_applier_words_per_row () =
  let eng = Engine.create () in
  let log = Log.create ~n_workers:1 () in
  Log.attach log eng;
  let tables = Array.init 3 (fun i -> Engine.create_table eng (Printf.sprintf "t%d" i)) in
  let commit f =
    let txn = Engine.begin_txn eng ~worker:0 ~ctx:0 in
    f txn;
    match Engine.commit eng txn with Ok _ -> () | Error _ -> Alcotest.fail "commit"
  in
  for i = 0 to 8_999 do
    commit (fun txn -> ignore (Engine.insert eng txn tables.(i mod 3) (row i)))
  done;
  Log.snapshot_base log eng;
  let from = Log.next_lsn log in
  for i = 0 to 2_999 do
    commit (fun txn ->
        match Engine.update eng txn tables.(i mod 3) ~oid:(i / 3 * 2) (row (-i)) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "update")
  done;
  for i = 0 to 999 do
    commit (fun txn -> ignore (Engine.insert eng txn tables.(i mod 3) (row (10_000 + i))))
  done;
  flush_all log;
  let ap = Recovery.Applier.create () in
  List.iter (Recovery.Applier.create_table ap) (Log.catalog log);
  ignore (Recovery.Applier.load_image ap (Log.base log));
  Recovery.Applier.feed ap log ~first:from ~upto:(Log.durable_lsn log);
  let image_payloads =
    List.concat_map (fun (_, rows) -> List.filter_map (fun (_, p, _) -> p) rows) (Log.base log)
  in
  let payloads = image_payloads @ payloads_of log ~first:from ~upto:(Log.durable_lsn log) in
  let per = float_of_int (own_words ap payloads) /. 10_000. in
  checkb (Printf.sprintf "%.2f words per row" per) true (per <= 4.);
  (* the engine built afterwards holds every row *)
  Recovery.Applier.finish ap;
  checkb "built engine equals the primary" true
    (Recovery.durable_state_equal eng (Recovery.Applier.engine ap))

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

(* A commit inside an actor's step (a worker running ahead of the event it
   was activated at) kicks the flush at the step's clock, not at the
   activation's start. *)
let test_daemon_flush_at_step_clock () =
  let des, eng, table, _log, daemon = mk_daemon ~group_bytes:1 () in
  let notified_at = ref (-1L) in
  let oid = seed_row eng table 0 in
  (* let the seeding flush complete first *)
  Sim.Des.run ~until:1_000L des;
  let actor = ref (-1) in
  actor :=
    Sim.Des.add_actor des (fun des ->
        Sim.Des.set_actor_clock des 6_000;
        let t = commit_update eng table oid 1 in
        let lsn = Option.get t.Txn.commit_lsn in
        Daemon.park daemon ~lsn ~notify:(fun () -> notified_at := Sim.Des.now des));
  Sim.Des.wake_actor des !actor ~time:1_100;
  Sim.Des.run ~until:100_000L des;
  (* the device takes at least its 500-cycle fsync floor; from the
     activation's start the flush would have completed by about 1 800 *)
  checkb "flush submitted at the step's clock" true (!notified_at >= 6_500L)

(* A commit's step submits a flush whose completion lands no sooner than
   the device's fsync floor: the daemon declares it as a path. *)
let test_daemon_declares_its_device () =
  let floor device =
    let des = Sim.Des.create () in
    let log = Log.create ~n_workers:1 () in
    ignore (Daemon.create ~des ~log ~device ~group_bytes:1 ~group_interval:2_000L ());
    Sim.Des.lookahead_floor des
  in
  checki "a default device" 9_600 (floor (Device.create ()));
  checki "a fast device" 240 (floor (Device.create ~fsync_floor_cycles:240L ()))

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
  let n = Log.durable_lsn log in
  let half = n / 2 in
  let recovered = Recovery.recover log in
  List.iter
    (fun (name, ranges) ->
      let ap = Recovery.Applier.create () in
      List.iter (Recovery.Applier.create_table ap) (Log.catalog log);
      ignore (Recovery.Applier.load_image ap (Log.base log));
      List.iter (fun (first, upto) -> Recovery.Applier.feed ap log ~first ~upto) ranges;
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
      ("duplicated prefix", [ (0, half); (0, n) ]);
      ("overlapping re-feed", [ (0, half + 3); (half, n) ]);
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

(* The columnar log against a record model kept here: random
   interleavings of commits (1-5 writes over three tables: inserts,
   updates, deletes), DDL, 2PC prepare/install/decision appends, drains
   and durable-LSN advances. *)
type model_record = {
  m_txn : int;
  m_ts : int64;
  m_table : string;
  m_oid : int;
  m_payload : Value.t option;
}

let model_bytes r =
  match r.m_oid with
  | -1 -> 32
  | -2 | -3 | -4 -> 16
  | _ -> 24 + Option.fold ~none:0 ~some:Value.size_bytes r.m_payload

let model_json ~durable ~catalog records =
  let module J = Obs.Json in
  let payload = function
    | None -> J.Null
    | Some v ->
      J.List
        (List.init (Value.length v) (fun k ->
             match Value.get v k with
             | Value.Int i -> J.Obj [ ("i", J.Int i) ]
             | Value.Float f -> J.Obj [ ("f", J.Float f) ]
             | Value.Str s -> J.Obj [ ("s", J.String s) ]))
  in
  J.to_string ~minify:true
    (J.Obj
       [
         ("durable", J.Int durable);
         ("catalog", J.List (List.map (fun n -> J.String n) catalog));
         ( "base",
           J.List (List.map (fun n -> J.Obj [ ("table", J.String n); ("rows", J.List []) ]) catalog)
         );
         ("ckpt", J.Null);
         ( "entries",
           J.List
             (List.mapi
                (fun lsn r ->
                  J.Obj
                    [
                      ("lsn", J.Int lsn);
                      ("txn", J.Int r.m_txn);
                      ("ts", J.Int (Int64.to_int r.m_ts));
                      ("table", J.String r.m_table);
                      ("oid", J.Int r.m_oid);
                      ("payload", payload r.m_payload);
                    ])
                (List.filteri (fun i _ -> i < durable) records)) );
       ])

type log_op =
  | Commit of (int * int * int) list  (* per write: table, kind, value *)
  | Prepare of (int * int * int) list
  | Install
  | Decision of int list
  | Ddl
  | Drain
  | Durable of int

let gen_log_ops =
  let open QCheck2.Gen in
  let writes = list_size (int_range 1 5) (triple (int_bound 2) (int_bound 2) (int_bound 999)) in
  pair
    (list_size (int_range 1 40)
       (frequency
          [
            (8, map (fun ws -> Commit ws) writes);
            (2, map (fun ws -> Prepare ws) writes);
            (1, return Install);
            (1, map (fun ps -> Decision ps) (list_size (int_range 1 3) (int_bound 3)));
            (1, return Ddl);
            (2, return Drain);
            (2, map (fun k -> Durable k) (int_bound 999));
          ]))
    (list_size (int_range 1 10) (pair nat nat))

let model_row v =
  if v mod 7 = 0 then Value.of_fields [| Value.Float (float_of_int v /. 7.); Value.Str "f" |]
  else Value.of_fields [| Value.Int v; Value.Str (String.make (v mod 5) 'x') |]

let prop_log_matches_model =
  QCheck2.Test.make ~name:"the columnar log equals a record model" ~count:200 gen_log_ops
    (fun (ops, ranges) ->
      let fail fmt = QCheck2.Test.fail_reportf fmt in
      let eng = Engine.create () in
      let log = Log.create ~n_workers:2 () in
      Log.attach log eng;
      let model = ref [] and n = ref 0 in
      let drained = ref 0 and durable = ref 0 and bytes = ref 0 and markers = ref 0 in
      let add r =
        model := r :: !model;
        incr n;
        bytes := !bytes + model_bytes r;
        if r.m_oid = -2 then incr markers
      in
      let ddl name = add { m_txn = 0; m_ts = 0L; m_table = name; m_oid = -1; m_payload = None } in
      let catalog = [ "a"; "b"; "c" ] in
      let tables =
        Array.of_list
          (List.map
             (fun name ->
               let tb = Engine.create_table eng name in
               ddl name;
               tb)
             catalog)
      in
      Log.snapshot_base log eng;
      let live = Array.make 3 [] in
      let gid = ref 1_000_000 and step = ref 0 in
      (* run a transaction's writes, distinct OIDs; returns them in order *)
      let run_writes txn ws =
        let used = ref [] in
        List.map
          (fun (ti, kind, v) ->
            let tb = tables.(ti) in
            let free = List.filter (fun o -> not (List.mem (ti, o) !used)) live.(ti) in
            let ok = function Ok () -> () | Error _ -> fail "write refused" in
            let ti, oid, payload, effect =
              match kind, free with
              | 0, _ | _, [] ->
                let p = model_row v in
                let tuple = Engine.insert eng txn tb p in
                (ti, tuple.Tuple.oid, Some p, `Insert)
              | 1, free ->
                let oid = List.nth free (v mod List.length free) and p = model_row (v + 1) in
                ok (Engine.update eng txn tb ~oid p);
                (ti, oid, Some p, `Keep)
              | _, free ->
                let oid = List.nth free (v mod List.length free) in
                ok (Engine.delete eng txn tb ~oid);
                (ti, oid, None, `Delete)
            in
            used := (ti, oid) :: !used;
            (ti, oid, payload, effect))
          ws
      in
      let add_writes ~txn ~ts writes =
        List.iter
          (fun (ti, oid, payload, _) ->
            add { m_txn = txn; m_ts = ts; m_table = List.nth catalog ti; m_oid = oid; m_payload = payload })
          writes
      in
      List.iter
        (fun op ->
          incr step;
          let worker = !step mod 3 in
          (match op with
          | Commit ws -> (
            let txn = Engine.begin_txn eng ~worker ~ctx:0 in
            let writes = run_writes txn ws in
            match Engine.commit eng txn with
            | Error _ -> fail "commit refused"
            | Ok ts ->
              add_writes ~txn:txn.Txn.id ~ts writes;
              add { m_txn = txn.Txn.id; m_ts = ts; m_table = ""; m_oid = -2; m_payload = None };
              List.iter
                (fun (ti, oid, _, effect) ->
                  match effect with
                  | `Insert -> live.(ti) <- oid :: live.(ti)
                  | `Delete -> live.(ti) <- List.filter (( <> ) oid) live.(ti)
                  | `Keep -> ())
                writes)
          | Prepare ws ->
            incr gid;
            let txn = Engine.begin_txn eng ~worker ~ctx:0 in
            let writes = run_writes txn ws in
            ignore (Log.append_prepare log ~worker ~gid:!gid txn);
            Engine.abort eng txn;
            add_writes ~txn:!gid ~ts:0L writes;
            add { m_txn = !gid; m_ts = 0L; m_table = ""; m_oid = -3; m_payload = None }
          | Install ->
            let ts = Int64.of_int (7 * !step) in
            ignore (Log.append_twopc_install log ~worker ~gid:!gid ~commit_ts:ts);
            add { m_txn = !gid; m_ts = ts; m_table = ""; m_oid = -4; m_payload = None }
          | Decision ps ->
            let ts = Int64.of_int (11 * !step) in
            ignore (Log.append_decision log ~worker ~gid:!gid ~commit_ts:ts ~participants:ps);
            add
              {
                m_txn = !gid;
                m_ts = ts;
                m_table = "";
                m_oid = -6;
                m_payload = Some (Value.of_fields (Array.of_list (List.map (fun p -> Value.Int p) ps)));
              }
          | Ddl ->
            let name = Printf.sprintf "late%d" !step in
            ignore (Engine.create_table eng name);
            ddl name
          | Drain ->
            let got = Log.drain_all log and want = (!drained, !n, !bytes, !markers) in
            if got <> want then fail "drain_all at step %d" !step;
            drained := !n;
            bytes := 0;
            markers := 0
          | Durable k ->
            durable := !durable + (k mod (!n - !durable + 1));
            Log.set_durable log !durable);
          if Log.pending_bytes log <> !bytes then
            fail "pending_bytes %d, model %d at step %d" (Log.pending_bytes log) !bytes !step)
        ops;
      let records = List.rev !model in
      let arr = Array.of_list records in
      if Log.next_lsn log <> !n then fail "next_lsn %d, model %d" (Log.next_lsn log) !n;
      let same (r : Log.record) lsn m =
        r.Log.lsn = lsn && r.Log.txn_id = m.m_txn
        && Int64.equal r.Log.commit_ts m.m_ts
        && r.Log.rtable = m.m_table && r.Log.oid = m.m_oid
        && Option.equal Value.equal r.Log.payload m.m_payload
        && r.Log.bytes = model_bytes m
      in
      Array.iteri
        (fun lsn m ->
          if not (same (Log.entry log lsn) lsn m) then fail "entry %d" lsn;
          if
            not
              (Log.txn_at log lsn = m.m_txn
              && Int64.equal (Log.ts_at log lsn) m.m_ts
              && Log.oid_at log lsn = m.m_oid
              && Log.table_at log lsn = m.m_table
              && Option.equal Value.equal (Log.payload_at log lsn) m.m_payload)
          then fail "column readers at %d" lsn)
        arr;
      let durable_list = Log.durable_entries log in
      if List.length durable_list <> !durable
         || not (List.for_all2 (fun r lsn -> same r lsn arr.(lsn)) durable_list (List.init !durable Fun.id))
      then fail "durable_entries";
      List.iter
        (fun (a, b) ->
          let first = a mod (!n + 1) in
          let upto = first + (b mod (!n - first + 1)) in
          let want = ref 0 in
          for lsn = first to upto - 1 do
            want := !want + model_bytes arr.(lsn)
          done;
          if Log.range_bytes log ~first ~upto <> !want then fail "range_bytes [%d, %d)" first upto)
        ranges;
      let want = model_json ~durable:!durable ~catalog records in
      if Log.to_string log <> want then fail "to_string differs from the model's dump";
      true)

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
          Alcotest.test_case "a valid dump keeps its bytes" `Quick
            test_valid_dump_keeps_its_bytes;
          Alcotest.test_case "rejects a malformed payload" `Quick test_rejects_bad_payload;
          Alcotest.test_case "rejects a malformed image row" `Quick test_rejects_bad_image_row;
          Alcotest.test_case "rejects a malformed catalog entry" `Quick
            test_rejects_bad_catalog_entry;
          Alcotest.test_case "rejects a malformed base" `Quick test_rejects_bad_base;
          Alcotest.test_case "rejects a malformed ckpt" `Quick test_rejects_bad_ckpt;
          Alcotest.test_case "the log holds <= 5 words per record" `Quick
            test_log_words_per_record;
        ]
        @ qsuite [ prop_log_matches_model ] );
      ( "daemon",
        [
          Alcotest.test_case "group-commit batching" `Quick test_daemon_group_commit_batching;
          Alcotest.test_case "ack rule" `Quick test_daemon_ack_rule;
          Alcotest.test_case "park/unpark" `Quick test_daemon_park_unpark;
          Alcotest.test_case "crash tears the tail" `Quick test_daemon_crash_torn_tail;
          Alcotest.test_case "flush at the step's clock" `Quick test_daemon_flush_at_step_clock;
          Alcotest.test_case "declares its device's fsync floor" `Quick
            test_daemon_declares_its_device;
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
            Alcotest.test_case "the applier holds <= 4 words per row" `Quick
              test_applier_words_per_row;
          ] );
      ( "checkpoint",
        [
          Alcotest.test_case "fuzzy pass + recovery" `Quick
            test_checkpoint_pass_and_recovery;
          Alcotest.test_case "chunk over empty tables returns" `Quick
            test_checkpoint_empty_tables;
        ] );
    ]
