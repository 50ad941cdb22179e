type t = {
  clk : Clock.t;
  root_rng : Rng.t;
  q : (t -> unit) Event_queue.t;
  (* The clock is a native int: it is touched once per event, and a boxed
     int64 store per event was a measurable slice of the simulator's
     allocation.  Event times are guarded to fit 63 bits at push. *)
  mutable now_i : int;
  mutable stopped : bool;
  mutable processed : int;
  mutable max_queue_len : int;
  mutable probe : (time:int64 -> seq:int -> unit) option;
}

let create ?(clock = Clock.default) ?(seed = 42L) () =
  {
    clk = clock;
    root_rng = Rng.create seed;
    q = Event_queue.create ~capacity:1024 ();
    now_i = 0;
    stopped = false;
    processed = 0;
    max_queue_len = 0;
    probe = None;
  }

let clock t = t.clk
let rng t = t.root_rng
let now t = Int64.of_int t.now_i
let now_int t = t.now_i

(* Workers poll this once per micro-op (the run-ahead bound), so it must not
   allocate: the queue's minimum is the heap root, read in O(1).  Inlined
   into the caller it is a few loads, where the cached field it replaced
   cost a compare on every push and a peek on every pop. *)
let[@inline] next_event_time_int t =
  if Event_queue.is_empty t.q then max_int else Event_queue.peek_time_int t.q

let next_event_time t =
  if Event_queue.is_empty t.q then Int64.max_int
  else Int64.of_int (Event_queue.peek_time_int t.q)

let schedule_at_int t ~time f =
  let time = if time < t.now_i then t.now_i else time in
  Event_queue.push_int t.q ~time f

let schedule_at t ~time f =
  let time =
    if Int64.compare time (Int64.of_int t.now_i) < 0 then Int64.of_int t.now_i
    else time
  in
  Event_queue.push t.q ~time f

let schedule_after t ~delay f =
  let delay = if Int64.compare delay 0L < 0 then 0L else delay in
  schedule_at t ~time:(Int64.add (Int64.of_int t.now_i) delay) f

let stop t = t.stopped <- true
let set_probe t f = t.probe <- f
let set_queue_tracer t f = Event_queue.set_tracer t.q f

let run ?until t =
  t.stopped <- false;
  let horizon =
    match until with
    | None -> max_int
    | Some u ->
      (* an unbounded horizon (>= Int64.max_int or any u past the native
         range) saturates: no event can be scheduled beyond max_int anyway *)
      if Int64.compare u (Int64.of_int max_int) >= 0 then max_int
      else Int64.to_int u
  in
  let rec loop () =
    if not t.stopped then begin
      if Event_queue.is_empty t.q then ()
      else if Event_queue.peek_time_int t.q > horizon then t.now_i <- horizon
      else begin
        let len = Event_queue.length t.q in
        if len > t.max_queue_len then t.max_queue_len <- len;
        let time, f = Event_queue.pop_exn_int t.q in
        t.now_i <- time;
        t.processed <- t.processed + 1;
        (match t.probe with
        | Some p -> p ~time:(Int64.of_int time) ~seq:t.processed
        | None -> ());
        f t;
        loop ()
      end
    end
  in
  loop ()

let events_processed t = t.processed
let max_queue_depth t = t.max_queue_len
