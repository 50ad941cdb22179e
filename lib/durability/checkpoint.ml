module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module P = Workload.Program

(* Cycles to copy one live row into the checkpoint image. *)
let copy_cycles = 64

type rows = (int * Storage.Value.t option * int64) list

type t = {
  log : Log.t;
  sweep : Storage.Sweep.t;
  mutable pass_start_lsn : int;
  (* The pass under construction: tables scanned so far, newest first;
     rows of the table being scanned, newest first. *)
  mutable acc_done : (string * rows) list;
  mutable acc_rows : rows;
  mutable chunks_ : int;
  mutable tuples_ : int;
  mutable emit : (Obs.Event.t -> unit) option;
}

let create ?chunk_tuples ~eng ~log () =
  {
    log;
    sweep = Storage.Sweep.create ?chunk_tuples eng;
    pass_start_lsn = Log.next_lsn log;
    acc_done = [];
    acc_rows = [];
    chunks_ = 0;
    tuples_ = 0;
    emit = None;
  }

let passes t = Storage.Sweep.passes t.sweep
let chunks t = t.chunks_
let tuples_scanned t = t.tuples_
let set_emit t f = t.emit <- f

let table_done t table =
  t.acc_done <- (Table.name table, List.rev t.acc_rows) :: t.acc_done;
  t.acc_rows <- []

(* A full pass scanned every table: publish the image.  Replay starts at
   the LSN the pass began at — records committed mid-pass may be both in
   the image and in the replayed suffix; recovery's install is idempotent
   by commit timestamp, so the double-apply is harmless. *)
let pass_done t () =
  let image = List.rev t.acc_done in
  let start_lsn = t.pass_start_lsn in
  Log.install_checkpoint t.log ~start_lsn image;
  t.acc_done <- [];
  t.pass_start_lsn <- Log.next_lsn t.log;
  match t.emit with
  | Some f ->
    f
      (Obs.Event.Ckpt_complete
         {
           start_lsn;
           tuples = List.fold_left (fun n (_, rows) -> n + List.length rows) 0 image;
         })
  | None -> ()

(* One preemptible checkpoint chunk, dispatched by the scheduler as a
   maintenance request.  Each tuple scan is a charged op, so a user
   interrupt can preempt the pass between tuples — the fuzzy-checkpoint
   read (latest committed version) happens in the uncharged instant after
   the charge, which the single-threaded simulation makes atomic. *)
let chunk_program t : P.t =
 fun _env ->
  (match
     Storage.Sweep.claim ~table_done:(table_done t) ~pass_done:(pass_done t) t.sweep
   with
  | None -> ()
  | Some (table, first, count) ->
    for oid = first to first + count - 1 do
      P.charge P.Gc_scan;
      t.tuples_ <- t.tuples_ + 1;
      let v = Version.latest_committed (Tuple.head (Table.get table oid)) in
      if not (Version.is_nil v) then begin
        P.charge (P.Compute copy_cycles);
        t.acc_rows <- (oid, v.Version.data, v.Version.begin_ts) :: t.acc_rows
      end
    done;
    t.chunks_ <- t.chunks_ + 1;
    match t.emit with
    | Some f ->
      f (Obs.Event.Ckpt_chunk { table = Table.name table; first_oid = first; tuples = count })
    | None -> ());
  P.Committed 0L
