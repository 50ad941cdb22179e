type t = {
  index_probe : int;
  index_insert : int;
  index_remove : int;
  scan_step : int;
  record_read : int;
  record_write : int;
  record_insert : int;
  txn_begin : int;
  commit_latch : int;
  commit_validate : int;
  commit_install_base : int;
  commit_install_per_write : int;
  txn_abort : int;
  gc_scan : int;
  gc_unlink_base : int;
  gc_unlink_per_version : int;
  commit_wait_publish : int;
  commit_unpark : int;
  commit_wait_spin : int;
}

let default =
  {
    index_probe = 240;
    index_insert = 350;
    index_remove = 300;
    scan_step = 60;
    record_read = 190;
    record_write = 420;
    record_insert = 450;
    txn_begin = 150;
    commit_latch = 60;
    commit_validate = 120;
    commit_install_base = 250;
    commit_install_per_write = 120;
    txn_abort = 400;
    gc_scan = 70;
    gc_unlink_base = 90;
    gc_unlink_per_version = 40;
    commit_wait_publish = 90;
    commit_unpark = 150;
    commit_wait_spin = 400;
  }

let[@inline] cycles t (op : Workload.Program.op) =
  match op with
  | Index_probe -> t.index_probe
  | Index_insert -> t.index_insert
  | Index_remove -> t.index_remove
  | Scan_step -> t.scan_step
  | Record_read -> t.record_read
  | Record_write -> t.record_write
  | Record_insert -> t.record_insert
  | Compute n | Spin n -> n
  | Txn_begin -> t.txn_begin
  | Commit_latch -> t.commit_latch
  | Commit_validate -> t.commit_validate
  | Commit_install n -> t.commit_install_base + (n * t.commit_install_per_write)
  | Txn_abort -> t.txn_abort
  | Yield_hint -> 0
  | Gc_scan -> t.gc_scan
  | Gc_unlink n -> t.gc_unlink_base + (n * t.gc_unlink_per_version)
  | Commit_wait _ -> t.commit_wait_publish
  (* gate publish rides the same cost knob as the commit publish: both are
     "stash a wait token and tell the waker where to poke" *)
  | Gate_wait _ -> t.commit_wait_publish
