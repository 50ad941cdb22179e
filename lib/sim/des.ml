type t = {
  clk : Clock.t;
  root_rng : Rng.t;
  q : (t -> unit) Event_queue.t;
  (* The clock is a native int: it is touched once per event, and a boxed
     int64 store per event was a measurable slice of the simulator's
     allocation.  Event times are guarded to fit 63 bits at push. *)
  mutable now_i : int;
  mutable horizon : int;  (* no actor step starts past it *)
  mutable stopped : bool;
  mutable processed : int;
  mutable activations : int;
  mutable max_queue_len : int;
  mutable probe : (time:int64 -> seq:int -> unit) option;
  mutable floor : int;
      (* least latency of the declared paths by which a step reaches
         another actor; [max_int] while none is declared *)
  mutable running : int;  (* id of the actor whose activation runs; -1 in an event *)
  (* Actors live beside the queue: the activation closure and pending
     activation time ([-1] = none) of each, by id, and a binary min-heap of
     the scheduled ids on [(time, id)].  At most one activation per actor
     is pending, so the heap never holds more ids than there are actors. *)
  mutable acts : (t -> unit) array;
  mutable act_time : int array;
  mutable heap : int array;
  mutable hsize : int;
  mutable n_actors : int;
}

let create ?(clock = Clock.default) ?(seed = 42L) () =
  {
    clk = clock;
    root_rng = Rng.create seed;
    q = Event_queue.create ~capacity:1024 ();
    now_i = 0;
    horizon = max_int;
    stopped = false;
    processed = 0;
    activations = 0;
    max_queue_len = 0;
    probe = None;
    floor = max_int;
    running = -1;
    acts = [||];
    act_time = [||];
    heap = [||];
    hsize = 0;
    n_actors = 0;
  }

let clock t = t.clk
let rng t = t.root_rng
let now t = Int64.of_int t.now_i
let now_int t = t.now_i
let set_actor_clock t time = t.now_i <- time
let add_path t ~least_latency = if least_latency < t.floor then t.floor <- max 0 least_latency
let lookahead_floor t = t.floor

(* Workers poll this once per micro-op (inside the run-ahead bound), so it
   must not allocate: the queue's minimum is the heap root, read in O(1).
   Inlined into the caller it is a few loads, where the cached field it
   replaced cost a compare on every push and a peek on every pop. *)
let[@inline] next_event_time_int t =
  if Event_queue.is_empty t.q then max_int else Event_queue.peek_time_int t.q

let next_event_time t =
  if Event_queue.is_empty t.q then Int64.max_int
  else Int64.of_int (Event_queue.peek_time_int t.q)

(* A commuting step may run up to the floor ahead of other actors'
   pending steps, so an event a step pushes must land at least the floor
   after the step's clock: sooner, it could reach an actor past the
   instant it lands at.  An event (no actor running) may push at any
   latency. *)
let[@inline never] pushed_under_floor t time =
  failwith
    (Printf.sprintf
       "Des: actor %d's step at %d pushed an event at %d, under the lookahead floor %d"
       t.running t.now_i time t.floor)

(* A difference, not [time < now_i + floor]: the floor may be [max_int]. *)
let[@inline] check_push t time =
  if t.running >= 0 && time - t.now_i < t.floor then pushed_under_floor t time

let schedule_at_int t ~time f =
  let time = if time < t.now_i then t.now_i else time in
  check_push t time;
  Event_queue.push_int t.q ~time f

let schedule_at t ~time f =
  let time =
    if Int64.compare time (Int64.of_int t.now_i) < 0 then Int64.of_int t.now_i
    else time
  in
  check_push t (Int64.to_int time);
  Event_queue.push t.q ~time f

let schedule_after t ~delay f =
  let delay = if Int64.compare delay 0L < 0 then 0L else delay in
  schedule_at t ~time:(Int64.add (Int64.of_int t.now_i) delay) f

let stop t = t.stopped <- true
let set_probe t f = t.probe <- f
let set_queue_tracer t f = Event_queue.set_tracer t.q f

(* -- actors -------------------------------------------------------------- *)

let[@inline] before t a b =
  let ta = Array.unsafe_get t.act_time a and tb = Array.unsafe_get t.act_time b in
  ta < tb || (ta = tb && a < b)

let add_actor t f =
  let id = t.n_actors in
  if id = Array.length t.acts then begin
    let cap = max 8 (2 * id) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 id;
      b
    in
    t.acts <- grow t.acts f;
    t.act_time <- grow t.act_time (-1);
    t.heap <- grow t.heap 0
  end;
  t.acts.(id) <- f;
  t.act_time.(id) <- -1;
  t.n_actors <- id + 1;
  id

(* The sifts are top-level loops over explicit arguments: a local [let rec]
   closing over the heap would allocate a closure per activation. *)
let rec sift_up t h id i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let pid = Array.unsafe_get h p in
    if before t id pid then begin
      Array.unsafe_set h i pid;
      sift_up t h id p
    end
    else Array.unsafe_set h i id
  end
  else Array.unsafe_set h 0 id

let rec sift_down t h n last i =
  let l = (2 * i) + 1 in
  if l >= n then Array.unsafe_set h i last
  else begin
    let r = l + 1 in
    let c = if r < n && before t (Array.unsafe_get h r) (Array.unsafe_get h l) then r else l in
    let cid = Array.unsafe_get h c in
    if before t cid last then begin
      Array.unsafe_set h i cid;
      sift_down t h n last c
    end
    else Array.unsafe_set h i last
  end

(* A step reaches another actor only by an event it pushes, which lands at
   least the floor later; a wake from inside a step would reach it at
   once.  Every cross-actor wake is an event's. *)
let[@inline never] woken_from_step t id =
  failwith
    (Printf.sprintf "Des.wake_actor: actor %d woken from actor %d's step" id t.running)

let wake_actor t id ~time =
  if t.running >= 0 && t.running <> id then woken_from_step t id;
  if t.act_time.(id) < 0 then begin
    t.act_time.(id) <- (if time < t.now_i then t.now_i else time);
    sift_up t t.heap id t.hsize;
    t.hsize <- t.hsize + 1
  end

let pop_actor t =
  let h = t.heap in
  let top = h.(0) in
  let n = t.hsize - 1 in
  t.hsize <- n;
  if n > 0 then sift_down t h n h.(n) 0;
  top

(* The tie rule, as the bound a running actor's next step must satisfy:
   no step starts past the horizon; a pending non-actor event at the same
   instant runs first; a pending actor at the same instant runs first when
   its id is lower.  The running actor is never in the heap. *)
let[@inline] may_step t ~actor ~local =
  local <= t.horizon
  && local < next_event_time_int t
  && (t.hsize = 0
     ||
     let w = Array.unsafe_get t.heap 0 in
     let tw = Array.unsafe_get t.act_time w in
     local < tw || (local = tw && actor < w))

(* A step that commutes with every other actor may pass the other actors'
   pending activations by less than the floor: whatever their next steps
   push lands at least the floor after those steps start.  With no path
   ([floor = max_int]) only the events and the horizon bound it. *)
let[@inline] may_run_ahead t ~actor ~local =
  let floor = t.floor in
  if floor <= 0 then may_step t ~actor ~local
  else
    local <= t.horizon
    && local < next_event_time_int t
    && (floor = max_int || t.hsize = 0
       || local - floor < Array.unsafe_get t.act_time (Array.unsafe_get t.heap 0))

(* -- the loop ------------------------------------------------------------ *)

let dispatch t ~time =
  t.now_i <- time;
  t.processed <- t.processed + 1;
  match t.probe with
  | Some p -> p ~time:(Int64.of_int time) ~seq:t.processed
  | None -> ()

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
  t.horizon <- horizon;
  let rec loop () =
    if not t.stopped then begin
      let te = next_event_time_int t in
      let ta = if t.hsize = 0 then max_int else t.act_time.(t.heap.(0)) in
      if Event_queue.is_empty t.q && t.hsize = 0 then ()
      else if (if te <= ta then te else ta) > horizon then t.now_i <- horizon
      else begin
        let len = Event_queue.length t.q + t.hsize in
        if len > t.max_queue_len then t.max_queue_len <- len;
        if te <= ta then begin
          (* at one instant, every pending non-actor event runs first *)
          let time, f = Event_queue.pop_exn_int t.q in
          dispatch t ~time;
          f t
        end
        else begin
          let id = pop_actor t in
          t.act_time.(id) <- -1;
          t.activations <- t.activations + 1;
          dispatch t ~time:ta;
          t.running <- id;
          t.acts.(id) t;
          t.running <- -1
        end;
        loop ()
      end
    end
  in
  (match loop () with
  | () -> ()
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    t.running <- -1;
    Printexc.raise_with_backtrace e bt);
  (* an actor's last step may have run its clock past the horizon *)
  if t.now_i > horizon then t.now_i <- horizon

let events_processed t = t.processed
let activations t = t.activations
let max_queue_depth t = t.max_queue_len
