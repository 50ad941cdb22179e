type bucket =
  | Switch_passive
  | Switch_active
  | Uintr_handler
  | Uintr_reject
  | Queue_op
  | Retry_backoff
  | Coop_check
  | Commit_publish
  | Commit_spin
  | Commit_unpark
  | Fault_stall
  | Starvation_check
  | Gc
  | Ckpt
  | Idle

let n_fixed = 15

let bucket_index = function
  | Switch_passive -> 0
  | Switch_active -> 1
  | Uintr_handler -> 2
  | Uintr_reject -> 3
  | Queue_op -> 4
  | Retry_backoff -> 5
  | Coop_check -> 6
  | Commit_publish -> 7
  | Commit_spin -> 8
  | Commit_unpark -> 9
  | Fault_stall -> 10
  | Starvation_check -> 11
  | Gc -> 12
  | Ckpt -> 13
  | Idle -> 14

let bucket_name = function
  | Switch_passive -> "switch:passive"
  | Switch_active -> "switch:active"
  | Uintr_handler -> "uintr:handler"
  | Uintr_reject -> "uintr:reject"
  | Queue_op -> "queue_op"
  | Retry_backoff -> "retry_backoff"
  | Coop_check -> "coop_check"
  | Commit_publish -> "commit:publish"
  | Commit_spin -> "commit:spin"
  | Commit_unpark -> "commit:unpark"
  | Fault_stall -> "fault_stall"
  | Starvation_check -> "starvation_check"
  | Gc -> "gc_chunk"
  | Ckpt -> "ckpt_chunk"
  | Idle -> "idle"

let fixed_names =
  Array.init n_fixed (fun i ->
      bucket_name
        (List.nth
           [
             Switch_passive; Switch_active; Uintr_handler; Uintr_reject; Queue_op;
             Retry_backoff; Coop_check; Commit_publish; Commit_spin; Commit_unpark;
             Fault_stall; Starvation_check; Gc; Ckpt; Idle;
           ]
           i))

(* Cells are native ints: accounting happens once per micro-op, and a boxed
   Int64.add there allocates three words per charge — enough to show up in
   the simulator's GC profile.  Cycle totals stay well inside 62 bits; the
   reporting API below still speaks int64.  Every bucket and class is its
   own cell, so the worker resolves a request's cell once, when it installs
   the request, and each micro-op is one add to it. *)
type worker = {
  wid : int;
  cells : int ref array;  (* indexed by bucket_index *)
  txn : (string, int ref) Hashtbl.t;
}

type t = { mutable workers : worker list (* ascending wid *) }

let create () = { workers = [] }

let new_worker wid = { wid; cells = Array.init n_fixed (fun _ -> ref 0); txn = Hashtbl.create 8 }

let worker t ~wid =
  match List.find_opt (fun w -> w.wid = wid) t.workers with
  | Some w -> w
  | None ->
    let w = new_worker wid in
    t.workers <- List.sort (fun a b -> compare a.wid b.wid) (w :: t.workers);
    w

let bucket_cell w b = w.cells.(bucket_index b)

let account w b cycles =
  if cycles > 0 then begin
    let c = bucket_cell w b in
    c := !c + cycles
  end

let txn_cell w ~label =
  match Hashtbl.find_opt w.txn label with
  | Some c -> c
  | None ->
    let c = ref 0 in
    Hashtbl.add w.txn label c;
    c

let worker_ids t = List.map (fun w -> w.wid) t.workers

let raw_buckets w =
  let acc = ref [] in
  Array.iteri
    (fun i c -> if !c > 0 then acc := (fixed_names.(i), Int64.of_int !c) :: !acc)
    w.cells;
  Hashtbl.iter
    (fun label c -> if !c > 0 then acc := ("txn:" ^ label, Int64.of_int !c) :: !acc)
    w.txn;
  !acc

let desc l =
  List.sort (fun (na, a) (nb, b) ->
      match Int64.compare b a with 0 -> compare na nb | c -> c)
    l

let find_worker t wid = List.find_opt (fun w -> w.wid = wid) t.workers

let worker_buckets t ~wid =
  match find_worker t wid with None -> [] | Some w -> desc (raw_buckets w)

let sum l = List.fold_left (fun acc (_, v) -> Int64.add acc v) 0L l

let worker_total t ~wid = sum (worker_buckets t ~wid)

let non_idle_total t ~wid =
  sum (List.filter (fun (n, _) -> n <> "idle") (worker_buckets t ~wid))

let totals t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt tbl name with
          | Some c -> c := Int64.add !c v
          | None -> Hashtbl.add tbl name (ref v))
        (raw_buckets w))
    t.workers;
  desc (Hashtbl.fold (fun name c acc -> (name, !c) :: acc) tbl [])

let total_cycles t = sum (totals t)

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let top_k t k = take k (totals t)

let to_folded t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf
            (Printf.sprintf "worker%d;%s %Ld\n" w.wid name v))
        (desc (raw_buckets w)))
    t.workers;
  Buffer.contents buf

let to_json t =
  let total = total_cycles t in
  let totalf = Int64.to_float total in
  Json.Obj
    [
      ("total_cycles", Json.Int (Int64.to_int total));
      ( "buckets",
        Json.List
          (List.map
             (fun (name, v) ->
               Json.Obj
                 [
                   ("bucket", Json.String name);
                   ("cycles", Json.Int (Int64.to_int v));
                   ( "share",
                     Json.Float
                       (if totalf > 0. then Int64.to_float v /. totalf else 0.) );
                 ])
             (totals t)) );
      ( "workers",
        Json.List
          (List.map
             (fun w ->
               Json.Obj
                 [
                   ("wid", Json.Int w.wid);
                   ("cycles", Json.Int (Int64.to_int (worker_total t ~wid:w.wid)));
                   ("idle_cycles", Json.Int !(bucket_cell w Idle));
                 ])
             t.workers) );
    ]
