(* Binary min-heap keyed on [(time, seq)], [seq] a per-queue counter that
   makes every key unique, so the pop order is the total order the
   reference heap [Event_queue_ref] defines (the differential suite holds
   the two to it pop for pop).

   Layout: three native-int arrays indexed by heap position — [times],
   [seqs] and [cells] — sift by value, so no sift touches the write
   barrier.  Payloads live in a separate cell store, [payloads], indexed
   by cell id: written once when an entry is pushed and overwritten with
   a filler when it is popped.  [cells] is a permutation of the cell ids:
   positions [0, size) name the live entries' cells in heap order and
   positions [size, capacity) the free cells, so a push takes the free
   cell at [size] and a pop puts the root's cell back at the new [size].

   A pushed entry carries the largest seq in the queue, so on its way up
   it passes exactly the parents with a strictly later time.  A pop moves
   the last entry to the root and sifts it down by the full key.  Every
   index a sift loop touches is a heap position no greater than [size],
   and [size] is below the arrays' length when a sift runs, so those
   loops skip the bounds checks. *)

type trace_op = Op_push of int64 | Op_pop of int64 | Op_clear

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable cells : int array;
  mutable payloads : 'a array; (* [||] until the first push *)
  mutable size : int;
  mutable next_seq : int;
  mutable tracer : (trace_op -> unit) option;
}

let create ?(capacity = 256) () =
  let cap = max 1 capacity in
  {
    times = Array.make cap 0;
    seqs = Array.make cap 0;
    cells = Array.init cap Fun.id;
    payloads = [||];
    size = 0;
    next_seq = 0;
    tracer = None;
  }

let[@inline] is_empty t = t.size = 0
let length t = t.size
let set_tracer t f = t.tracer <- f

(* Double every array; the new cell ids join the free region. *)
let grow t =
  let cap = Array.length t.times in
  let extend a =
    let b = Array.make (2 * cap) 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times;
  t.seqs <- extend t.seqs;
  let cells = extend t.cells in
  for i = cap to (2 * cap) - 1 do
    cells.(i) <- i
  done;
  t.cells <- cells;
  if Array.length t.payloads > 0 then begin
    let p = Array.make (2 * cap) t.payloads.(0) in
    Array.blit t.payloads 0 p 0 cap;
    t.payloads <- p
  end

let push_int t ~time payload =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and cells = t.cells in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let cell = cells.(t.size) in
  (* the payload array is made on the first push, so no dummy value is
     ever fabricated *)
  if Array.length t.payloads = 0 then t.payloads <- Array.make (Array.length times) payload
  else t.payloads.(cell) <- payload;
  let i = ref t.size in
  while !i > 0 && Array.unsafe_get times ((!i - 1) lsr 1) > time do
    let p = (!i - 1) lsr 1 in
    Array.unsafe_set times !i (Array.unsafe_get times p);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
    Array.unsafe_set cells !i (Array.unsafe_get cells p);
    i := p
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set cells !i cell;
  t.size <- t.size + 1;
  match t.tracer with Some f -> f (Op_push (Int64.of_int time)) | None -> ()

let max_time = Int64.of_int max_int
let min_time = Int64.of_int min_int

let push t ~time payload =
  if Int64.compare time max_time > 0 || Int64.compare time min_time < 0 then
    invalid_arg "Event_queue.push: time outside native-int range";
  push_int t ~time:(Int64.to_int time) payload

(* Inlined, with [is_empty], into [Des.next_event_time_int] and from there
   into the worker loop, which polls it once per micro-op. *)
let[@inline] peek_time_int t =
  if t.size = 0 then invalid_arg "Event_queue.peek_time_int: empty queue" else t.times.(0)

let peek_time t = if t.size = 0 then None else Some (Int64.of_int t.times.(0))

(* Remove the root (size > 0): sift the last entry down from the top,
   then hand the root's cell back to the free region.  Returns that cell;
   the caller reads the time beforehand and the payload afterwards. *)
let remove_root t =
  let times = t.times and seqs = t.seqs and cells = t.cells in
  let root = cells.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let time = times.(n) and seq = seqs.(n) and cell = cells.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= n then sifting := false
    else begin
      let r = l + 1 in
      let tl = Array.unsafe_get times l in
      let m =
        if r >= n then l
        else
          let tr = Array.unsafe_get times r in
          if tr < tl || (tr = tl && Array.unsafe_get seqs r < Array.unsafe_get seqs l) then r
          else l
      in
      let tm = Array.unsafe_get times m in
      if tm < time || (tm = time && Array.unsafe_get seqs m < seq) then begin
        Array.unsafe_set times !i tm;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs m);
        Array.unsafe_set cells !i (Array.unsafe_get cells m);
        i := m
      end
      else sifting := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set cells !i cell;
  cells.(n) <- root;
  root

(* A popped cell's payload is overwritten with payloads.(0) (an arbitrary
   valid ['a]) so the queue does not keep a dead closure alive. *)
let take t cell =
  let payload = t.payloads.(cell) in
  if cell > 0 then t.payloads.(cell) <- t.payloads.(0);
  payload

let pop t =
  if t.size = 0 then None
  else begin
    let time = Int64.of_int t.times.(0) in
    let payload = take t (remove_root t) in
    (match t.tracer with Some f -> f (Op_pop time) | None -> ());
    Some (time, payload)
  end

let pop_exn t =
  match pop t with
  | Some e -> e
  | None -> invalid_arg "Event_queue.pop_exn: empty queue"

(* The DES inner loop's pop: the time comes back as a native int, so the
   per-event [(int64_box, payload)] pair shrinks to one unboxed pair. *)
let pop_exn_int t =
  if t.size = 0 then invalid_arg "Event_queue.pop_exn: empty queue"
  else begin
    let time = t.times.(0) in
    let payload = take t (remove_root t) in
    (match t.tracer with Some f -> f (Op_pop (Int64.of_int time)) | None -> ());
    (time, payload)
  end

let clear t =
  let cap = Array.length t.payloads in
  if cap > 1 then Array.fill t.payloads 1 (cap - 1) t.payloads.(0);
  t.size <- 0;
  match t.tracer with Some f -> f Op_clear | None -> ()

let drain t =
  let rec loop acc =
    match pop t with None -> List.rev acc | Some e -> loop (e :: acc)
  in
  loop []
