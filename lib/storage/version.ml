type t = {
  mutable data : Value.t option;
  mutable begin_ts : int64;
  mutable writer : int option;
  mutable next : t;
}

(* The one chain terminator: every chain ends here and nothing ever writes
   to it, so it can stand in for "no version" without an option box. *)
let rec nil = { data = None; begin_ts = 0L; writer = None; next = nil }

let is_nil v = v == nil

let in_flight_ts = Int64.max_int

let committed ?(ts = Timestamp.bootstrap) data =
  { data; begin_ts = ts; writer = None; next = nil }

let in_flight ~writer data = { data; begin_ts = in_flight_ts; writer = Some writer; next = nil }

(* Version nodes churn fast (every write installs one, every abort or GC
   unlink retires one) and live just long enough to be promoted out of the
   minor heap, which is the worst case for the GC.  The pool threads retired
   nodes into a freelist through their [next] field; recycling a node costs
   two mutations instead of a fresh five-word block plus promotion. *)
type pool = { mutable free_list : t }

let pool_create () = { free_list = nil }

let release p v =
  (* Drop the payload and writer so the pool retains no row data and no
     stale visibility state; a node still reachable from a chain must never
     be released (the choke points — abort, GC unlink — guarantee that). *)
  v.data <- None;
  v.writer <- None;
  v.begin_ts <- 0L;
  v.next <- p.free_list;
  p.free_list <- v

let in_flight_of p ~writer data =
  let v = p.free_list in
  if is_nil v then in_flight ~writer data
  else begin
    p.free_list <- v.next;
    v.data <- data;
    v.begin_ts <- in_flight_ts;
    v.writer <- Some writer;
    v.next <- nil;
    v
  end

let is_committed v = match v.writer with None -> true | Some _ -> false

let stamp v ts =
  if is_committed v then invalid_arg "Version.stamp: already committed";
  v.begin_ts <- ts;
  v.writer <- None

let visible v ~snapshot ~reader =
  match v.writer with
  | Some w -> w = reader
  | None -> Int64.compare v.begin_ts snapshot <= 0

let rec latest_committed v =
  if is_nil v || is_committed v then v else latest_committed v.next

let rec snapshot_read v ~snapshot ~reader =
  if is_nil v || visible v ~snapshot ~reader then v
  else snapshot_read v.next ~snapshot ~reader

let rec fold f acc v = if is_nil v then acc else fold f (f acc v) v.next

let chain_length chain = fold (fun n _ -> n + 1) 0 chain

let committed_length chain =
  fold (fun n v -> if is_committed v then n + 1 else n) 0 chain

let rec truncate_older_than ?release chain ~boundary =
  if is_nil chain then 0
  else if is_committed chain && Int64.compare chain.begin_ts boundary <= 0 then begin
    (* [chain] is the newest version visible at [boundary]: every snapshot
       at or above the boundary reads it or newer, so everything older is
       dead.  Cut here, handing each dropped node to [release] (which may
       repurpose its [next] field — hence the older-link read first). *)
    let dropped =
      match release with
      | None -> chain_length chain.next
      | Some rel ->
        let rec free n d =
          if is_nil d then n
          else begin
            let older = d.next in
            rel d;
            free (n + 1) older
          end
        in
        free 0 chain.next
    in
    chain.next <- nil;
    dropped
  end
  else truncate_older_than ?release chain.next ~boundary

let well_formed chain =
  let rec check ~at_head ~prev_ts v =
    if is_nil v then true
    else if not (is_committed v) then at_head && check ~at_head:false ~prev_ts v.next
    else
      match prev_ts with
      | Some p when Int64.compare v.begin_ts p >= 0 -> false
      | _ -> check ~at_head:false ~prev_ts:(Some v.begin_ts) v.next
  in
  check ~at_head:true ~prev_ts:None chain
