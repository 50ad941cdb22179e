(* Wall-clock split of one DES run by layer, taken from outside the
   program through three hooks the layers already export:

   - [Sim.Des.set_probe] stamps each event start;
   - [Worker.set_op_probe] stamps each executed micro-op;
   - [Sim.Des.set_queue_tracer] stamps each event-queue push and records
     a window of queue operations for a standalone replay.

   A program performs its [Charge op] effect before the engine call, and
   the worker resumes the continuation right after the op probe, so the
   host work of op X runs from X's probe to the next stamp.  An
   activation's span is therefore split as

     head  = event start .. first op probe      (dispatch, recognition)
     op X  = X's probe   .. next op probe       (X's engine work + step)
     last  = last probe  .. last queue push     (last op's engine work)
     tail  = last push   .. next event start    (reschedule, pop, loop)

   An event that runs no micro-op goes to the first layer whose public
   counter moved during it, else to "unattributed".  Reading those
   counters is the tracer's own work: each event start takes a stamp,
   reads them, and takes a second stamp, and the interval between the
   two goes to the "tracer" bucket, not to the program.  Every
   nanosecond between the first event start and [finish] lands in
   exactly one bucket, so the buckets sum to the traced wall time
   exactly. *)

let now () = Int64.to_int (Monotonic_clock.now ())

module P = Workload.Program

let op_names =
  [|
    "index_probe"; "index_insert"; "index_remove"; "scan_step"; "record_read";
    "record_write"; "record_insert"; "compute"; "spin"; "txn_begin";
    "commit_latch"; "commit_validate"; "commit_install"; "txn_abort";
    "yield_hint"; "gc_scan"; "gc_unlink"; "commit_wait"; "gate_wait";
  |]

let n_ops = Array.length op_names

let op_index : P.op -> int = function
  | P.Index_probe -> 0
  | P.Index_insert -> 1
  | P.Index_remove -> 2
  | P.Scan_step -> 3
  | P.Record_read -> 4
  | P.Record_write -> 5
  | P.Record_insert -> 6
  | P.Compute _ -> 7
  | P.Spin _ -> 8
  | P.Txn_begin -> 9
  | P.Commit_latch -> 10
  | P.Commit_validate -> 11
  | P.Commit_install _ -> 12
  | P.Txn_abort -> 13
  | P.Yield_hint -> 14
  | P.Gc_scan -> 15
  | P.Gc_unlink _ -> 16
  | P.Commit_wait _ -> 17
  | P.Gate_wait _ -> 18

let op_of_name name =
  let rec go i =
    if i >= n_ops then None else if op_names.(i) = name then Some i else go (i + 1)
  in
  go 0

(* Event layers, in attribution order: a flush completion that also ships
   a batch and unparks waiters is a durability event. *)
let layer_names =
  [| "durability"; "replication"; "shard"; "maint"; "sched"; "worker"; "uintr" |]

let n_layers = Array.length layer_names
let unattributed = n_layers

(* Spin for [ns] of wall time — the sensitivity self-test's injected
   host slowdown.  Touches no simulation state. *)
let burn ns =
  let stop = now () + ns in
  while now () < stop do
    ()
  done

(* Buckets: one per op kind, the activation head and tail, one per event
   layer plus unattributed, and the tracer's own counter reads. *)
let b_head = n_ops
let b_tail = n_ops + 1
let b_layer l = n_ops + 2 + l
let b_tracer = b_layer unattributed + 1

let bucket_names =
  Array.concat
    [
      op_names;
      [| "activation_head"; "activation_tail" |];
      Array.map (fun l -> "event:" ^ l) layer_names;
      [| "event:unattributed"; "tracer" |];
    ]

let span_window = 200_000
let queue_window = 1_000_000

type t = {
  signature : int array -> unit;
  burn_op : int;  (* op index whose probe burns, or -1 *)
  burn_ns : int;
  mutable first : int;
  mutable started : bool;
  mutable event_start : int;
  mutable last_probe : int;
  mutable last_kind : int;  (* op index of the event's latest probe, or -1 *)
  mutable last_push : int;
  mutable finished_at : int;
  bucket_ns : int array;
  op_count : int array;
  mutable activations : int;
  layer_events : int array;  (* n_layers + unattributed *)
  (* counter sums at the start of the current and of the previous event *)
  mutable sig_now : int array;
  mutable sig_prev : int array;
  (* queue *)
  mutable queue_ops : int;
  q_win : int array;  (* time lsl 1 (push) or time lsl 1 lor 1 (pop) *)
  mutable q_len : int;
  (* raw spans: start (ns since first), duration, bucket *)
  sp_start : int array;
  sp_dur : int array;
  sp_kind : int array;
  mutable sp_len : int;
}

let create ~signature ~burn_op ~burn_ns =
  {
    signature;
    burn_op;
    burn_ns;
    first = 0;
    started = false;
    event_start = 0;
    last_probe = 0;
    last_kind = -1;
    last_push = 0;
    finished_at = 0;
    bucket_ns = Array.make (Array.length bucket_names) 0;
    op_count = Array.make n_ops 0;
    activations = 0;
    layer_events = Array.make (n_layers + 1) 0;
    sig_now = Array.make n_layers 0;
    sig_prev = Array.make n_layers 0;
    queue_ops = 0;
    q_win = Array.make queue_window 0;
    q_len = 0;
    sp_start = Array.make span_window 0;
    sp_dur = Array.make span_window 0;
    sp_kind = Array.make span_window 0;
    sp_len = 0;
  }

(* Charge [start, stop) to bucket [b], and keep it as a raw span while
   the window lasts. *)
let charge t ~start ~stop b =
  t.bucket_ns.(b) <- t.bucket_ns.(b) + (stop - start);
  if t.sp_len < span_window then begin
    t.sp_start.(t.sp_len) <- start - t.first;
    t.sp_dur.(t.sp_len) <- stop - start;
    t.sp_kind.(t.sp_len) <- b;
    t.sp_len <- t.sp_len + 1
  end

(* Close the event that began at [t.event_start] at wall time [stop];
   [t.sig_now] holds the counters as that event left them. *)
let close_event t stop =
  if t.last_kind >= 0 then begin
    let cut = if t.last_push > t.last_probe then t.last_push else stop in
    charge t ~start:t.last_probe ~stop:cut t.last_kind;
    charge t ~start:cut ~stop b_tail;
    t.activations <- t.activations + 1
  end
  else begin
    let l = ref unattributed in
    for i = n_layers - 1 downto 0 do
      if t.sig_now.(i) <> t.sig_prev.(i) then l := i
    done;
    charge t ~start:t.event_start ~stop (b_layer !l);
    t.layer_events.(!l) <- t.layer_events.(!l) + 1
  end

(* Stamp, read the counters, close the previous event, stamp again. *)
let boundary t =
  let stamp = now () in
  t.signature t.sig_now;
  if t.started then close_event t stamp
  else begin
    t.started <- true;
    t.first <- stamp
  end;
  let s = t.sig_prev in
  t.sig_prev <- t.sig_now;
  t.sig_now <- s;
  let after = now () in
  charge t ~start:stamp ~stop:after b_tracer;
  after

let on_event t ~time:_ ~seq:_ =
  t.event_start <- boundary t;
  t.last_kind <- -1

let on_op t _w op =
  let stamp = now () in
  if t.last_kind < 0 then charge t ~start:t.event_start ~stop:stamp b_head
  else charge t ~start:t.last_probe ~stop:stamp t.last_kind;
  let k = op_index op in
  t.op_count.(k) <- t.op_count.(k) + 1;
  t.last_kind <- k;
  t.last_probe <- stamp;
  (* The burn opens this op's own interval, so the traced split charges
     it to the op. *)
  if k = t.burn_op then burn t.burn_ns

let on_queue t (op : Sim.Event_queue.trace_op) =
  t.queue_ops <- t.queue_ops + 1;
  match op with
  | Sim.Event_queue.Op_push time ->
    t.last_push <- now ();
    if t.q_len < queue_window then begin
      t.q_win.(t.q_len) <- Int64.to_int time lsl 1;
      t.q_len <- t.q_len + 1
    end
  | Sim.Event_queue.Op_pop time ->
    if t.q_len < queue_window then begin
      t.q_win.(t.q_len) <- (Int64.to_int time lsl 1) lor 1;
      t.q_len <- t.q_len + 1
    end
  | Sim.Event_queue.Op_clear -> ()

let install t des workers =
  Sim.Des.set_probe des (Some (on_event t));
  Sim.Des.set_queue_tracer des (Some (on_queue t));
  Array.iter (fun w -> Preemptdb.Worker.set_op_probe w (Some (on_op t))) workers

let finish t = if t.started then t.finished_at <- boundary t
let total_ns t = t.finished_at - t.first
let op_ns t k = t.bucket_ns.(k)
let layer_ns t l = t.bucket_ns.(b_layer l)

(* Replay the recorded queue window through a fresh [Sim.Event_queue]:
   the same push/pop sequence, checked pop for pop, timed alone.  The
   window starts at the run's first queue operation, so every pop in it
   pops a push from it.  Returns ns per operation (best of three). *)
let replay_queue t =
  let once () =
    let q = Sim.Event_queue.create ~capacity:1024 () in
    let ok = ref true in
    let t0 = now () in
    for i = 0 to t.q_len - 1 do
      let v = t.q_win.(i) in
      if v land 1 = 0 then Sim.Event_queue.push_int q ~time:(v lsr 1) ()
      else if Sim.Event_queue.is_empty q then ok := false
      else begin
        let time, () = Sim.Event_queue.pop_exn_int q in
        if time <> v lsr 1 then ok := false
      end
    done;
    (now () - t0, !ok)
  in
  let runs = List.init 3 (fun _ -> once ()) in
  let best = List.fold_left (fun acc (ns, _) -> min acc ns) max_int runs in
  let ok = List.for_all snd runs in
  let per_op = if t.q_len = 0 then 0. else float_of_int best /. float_of_int t.q_len in
  (per_op, ok)

let write_spans t path =
  let oc = open_out path in
  output_string oc "start_ns,dur_ns,bucket\n";
  for i = 0 to t.sp_len - 1 do
    Printf.fprintf oc "%d,%d,%s\n" t.sp_start.(i) t.sp_dur.(i) bucket_names.(t.sp_kind.(i))
  done;
  close_out oc
