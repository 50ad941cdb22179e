type t = {
  clk : Clock.t;
  root_rng : Rng.t;
  q : (t -> unit) Event_queue.t;
  (* The clock and the next-event cache are native ints: both are touched
     once per event (and the cache polled once per actor micro-op), and a
     boxed int64 store per event was a measurable slice of the simulator's
     allocation.  Event times are guarded to fit 63 bits at push. *)
  mutable now_i : int;
  mutable next_i : int; (* cached queue minimum; max_int when empty *)
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
    next_i = max_int;
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
   allocate: return the cached int.  The cache is maintained incrementally —
   a push can only lower the minimum, so it is min'd in without peeking; a
   pop re-peeks. *)
let next_event_time_int t = t.next_i

let next_event_time t =
  if t.next_i = max_int then Int64.max_int else Int64.of_int t.next_i

let refresh_next t =
  if Event_queue.is_empty t.q then t.next_i <- max_int
  else t.next_i <- Event_queue.peek_time_int t.q

let schedule_at_int t ~time f =
  let time = if time < t.now_i then t.now_i else time in
  Event_queue.push_int t.q ~time f;
  if time < t.next_i then t.next_i <- time

let schedule_at t ~time f =
  let time =
    if Int64.compare time (Int64.of_int t.now_i) < 0 then Int64.of_int t.now_i
    else time
  in
  Event_queue.push t.q ~time f;
  (* push guarantees the time fits a native int *)
  let ti = Int64.to_int time in
  if ti < t.next_i then t.next_i <- ti

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
      else if t.next_i > horizon then t.now_i <- horizon
      else begin
        let len = Event_queue.length t.q in
        if len > t.max_queue_len then t.max_queue_len <- len;
        let time, f = Event_queue.pop_exn_int t.q in
        t.now_i <- time;
        refresh_next t;
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
