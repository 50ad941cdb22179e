type entry = { seq : int; time : int64; wid : int; ctx : int; ev : Event.t }

type ring = {
  buf : entry option array;
  mutable next : int;
  mutable total : int;
}

type t = {
  capacity : int;
  tracks : (int, ring) Hashtbl.t;  (* key = wid (sched_track for the scheduler) *)
  mutable seq : int;
}

let sched_track = -1
let dur_track = -2
let maint_track = -3
let repl_track = -4

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Sink.create: capacity must be positive";
  { capacity; tracks = Hashtbl.create 8; seq = 0 }

let ring_of t wid =
  match Hashtbl.find_opt t.tracks wid with
  | Some r -> r
  | None ->
    let r = { buf = Array.make t.capacity None; next = 0; total = 0 } in
    Hashtbl.replace t.tracks wid r;
    r

let record t ~time ~wid ~ctx ev =
  let r = ring_of t wid in
  r.buf.(r.next) <- Some { seq = t.seq; time; wid; ctx; ev };
  r.next <- (r.next + 1) mod t.capacity;
  r.total <- r.total + 1;
  t.seq <- t.seq + 1

let recorded t = t.seq

let dropped t =
  Hashtbl.fold (fun _ r acc -> acc + max 0 (r.total - t.capacity)) t.tracks 0

let ring_entries t r =
  let n = min r.total t.capacity in
  let start = if r.total <= t.capacity then 0 else r.next in
  List.init n (fun i ->
      match r.buf.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let dump t =
  Hashtbl.fold (fun _ r acc -> List.rev_append (ring_entries t r) acc) t.tracks []
  |> List.sort (fun a b ->
         match Int64.compare a.time b.time with 0 -> compare a.seq b.seq | c -> c)

let clear t =
  Hashtbl.reset t.tracks;
  t.seq <- 0

let pp clock ppf t =
  List.iter
    (fun e ->
      let actor =
        if e.wid = sched_track then "sched"
        else if e.wid = dur_track then "dur"
        else if e.wid = maint_track then "maint"
        else if e.wid = repl_track then "repl"
        else Printf.sprintf "w%d.ctx%d" e.wid e.ctx
      in
      Format.fprintf ppf "[%10.2fus] %-10s %s@."
        (Sim.Clock.us_of_cycles clock e.time)
        actor (Event.to_string e.ev))
    (dump t)
