(* The original binary-heap event queue, kept verbatim as the reference
   implementation for the event-queue differential test harness
   (test/test_queue_diff.ml).  Do NOT delete: the differential suite links
   against this module statically, so removing it is a loud compile
   failure, not a silent skip.

   [clear] empties the heap and keeps [next_seq] counting: pop order
   depends only on the relative order of unique, increasing seqs, so a
   cleared-and-reused queue pops exactly like a fresh one either way. *)

type 'a cell = { time : int64; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a cell option array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 256) () =
  let capacity = max 1 capacity in
  { heap = Array.make capacity None; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let length t = t.size

(* [a] sorts before [b] when its time is earlier, or at equal times when it
   was scheduled first. *)
let before a b =
  match Int64.compare a.time b.time with
  | 0 -> a.seq < b.seq
  | c -> c < 0

let get t i =
  match t.heap.(i) with
  | Some c -> c
  | None -> assert false

let grow t =
  let heap = Array.make (2 * Array.length t.heap) None in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before (get t i) (get t parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before (get t l) (get t !smallest) then smallest := l;
  if r < t.size && before (get t r) (get t !smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t ~time payload =
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- Some { time; seq = t.next_seq; payload };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek_time t = if t.size = 0 then None else Some (get t 0).time

let pop t =
  if t.size = 0 then None
  else begin
    let root = get t 0 in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    t.heap.(t.size) <- None;
    if t.size > 0 then sift_down t 0;
    Some (root.time, root.payload)
  end

let pop_exn t =
  match pop t with
  | Some e -> e
  | None -> invalid_arg "Event_queue_ref.pop_exn: empty queue"

let clear t =
  Array.fill t.heap 0 t.size None;
  t.size <- 0

let drain t =
  let rec loop acc =
    match pop t with None -> List.rev acc | Some e -> loop (e :: acc)
  in
  loop []
