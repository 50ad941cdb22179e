type class_stats = {
  end_to_end : Sim.Histogram.t;
  scheduling : Sim.Histogram.t;
  commit_wait : Sim.Histogram.t;
  mutable committed : int;
  mutable aborted : int;
  mutable aborted_conflict : int;
  mutable aborted_validation : int;
  mutable aborted_deadlock : int;
  mutable aborted_user : int;
  mutable exhausted : int;
  mutable shed : int;
}

type internal = {
  cs : class_stats;
  timeline : Obs.Timeline.t option;  (* commit-time latency series *)
  mutable log_sum : float;  (* sum of ln(end-to-end cycles) for geomean *)
  mutable log_n : int;
}

type t = {
  by_class : (string, internal) Hashtbl.t;
  timeline_window : int64 option;
  mutable drops_ : int;
  mutable digest_ : int;
}

(* The schedule digest is a sum of per-record hashes, so it does not
   depend on the host order in which records arrive. *)
let mix h x = (h lxor x) * 0x100000001b3
let opt = function Some v -> Int64.to_int v | None -> -1
let add_digest t h = t.digest_ <- t.digest_ + h

let create ?timeline_window () =
  (match timeline_window with
  | Some w when Int64.compare w 0L <= 0 ->
    invalid_arg "Metrics.create: timeline_window must be positive"
  | _ -> ());
  { by_class = Hashtbl.create 8; timeline_window; drops_ = 0; digest_ = 0 }

let intern t label =
  match Hashtbl.find_opt t.by_class label with
  | Some i -> i
  | None ->
    let i =
      {
        cs =
          {
            end_to_end = Sim.Histogram.create ();
            scheduling = Sim.Histogram.create ();
            commit_wait = Sim.Histogram.create ();
            committed = 0;
            aborted = 0;
            aborted_conflict = 0;
            aborted_validation = 0;
            aborted_deadlock = 0;
            aborted_user = 0;
            exhausted = 0;
            shed = 0;
          };
        timeline =
          Option.map (fun width -> Obs.Timeline.create ~width ()) t.timeline_window;
        log_sum = 0.;
        log_n = 0;
      }
    in
    Hashtbl.replace t.by_class label i;
    i

let request_hash ~exhausted (req : Request.t) =
  let outcome =
    match req.Request.outcome with
    | Some (Workload.Program.Committed ts) -> Int64.to_int ts
    | Some (Workload.Program.Aborted r) ->
      -1 - Hashtbl.hash (Storage.Err.abort_reason_to_string r)
    | None -> min_int
  in
  (* no request id: the digest pins when and how requests ran, not how
     their generators numbered them *)
  List.fold_left mix 0x811c9dc5
    [
      Hashtbl.hash req.Request.label;
      Int64.to_int req.Request.submitted_at;
      opt req.Request.started_at;
      opt req.Request.finished_at;
      outcome;
      req.Request.preemptions;
      Bool.to_int exhausted;
    ]

let record_finish ?(exhausted = false) t (req : Request.t) =
  add_digest t (request_hash ~exhausted req);
  let i = intern t req.Request.label in
  (match Request.scheduling_latency req with
  | Some lat -> Sim.Histogram.record i.cs.scheduling lat
  | None -> ());
  if Request.committed req then begin
    i.cs.committed <- i.cs.committed + 1;
    match Request.end_to_end_latency req with
    | Some lat ->
      Sim.Histogram.record i.cs.end_to_end lat;
      (match i.timeline, req.Request.finished_at with
      | Some tl, Some finished -> Obs.Timeline.record tl ~time:finished ~value:lat
      | _ -> ());
      let cycles = Int64.to_float (Int64.max lat 1L) in
      i.log_sum <- i.log_sum +. log cycles;
      i.log_n <- i.log_n + 1
    | None -> ()
  end
  else begin
    i.cs.aborted <- i.cs.aborted + 1;
    if exhausted then i.cs.exhausted <- i.cs.exhausted + 1;
    match req.Request.outcome with
    | Some (Workload.Program.Aborted r) -> (
      match r with
      | Storage.Err.Write_conflict -> i.cs.aborted_conflict <- i.cs.aborted_conflict + 1
      | Storage.Err.Read_validation ->
        i.cs.aborted_validation <- i.cs.aborted_validation + 1
      | Storage.Err.Latch_deadlock -> i.cs.aborted_deadlock <- i.cs.aborted_deadlock + 1
      | Storage.Err.User_abort -> i.cs.aborted_user <- i.cs.aborted_user + 1)
    | Some (Workload.Program.Committed _) | None -> ()
  end

let record_shed t label =
  add_digest t (mix 0x5eed (Hashtbl.hash label));
  let i = intern t label in
  i.cs.shed <- i.cs.shed + 1

let record_commit_wait t label cycles =
  add_digest t (mix (mix 0xc0117 (Hashtbl.hash label)) (Int64.to_int cycles));
  let i = intern t label in
  Sim.Histogram.record i.cs.commit_wait cycles

let record_drop t =
  add_digest t 0xd409;
  t.drops_ <- t.drops_ + 1

let drops t = t.drops_
let digest t = t.digest_

let classes t =
  Hashtbl.fold (fun k i acc -> (k, i.cs) :: acc) t.by_class []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let timelines t =
  Hashtbl.fold
    (fun k i acc -> match i.timeline with Some tl -> (k, tl) :: acc | None -> acc)
    t.by_class []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find t label = Option.map (fun i -> i.cs) (Hashtbl.find_opt t.by_class label)

let committed t label = match find t label with Some cs -> cs.committed | None -> 0

let total t f = Hashtbl.fold (fun _ i acc -> acc + f i.cs) t.by_class 0
let committed_total t = total t (fun cs -> cs.committed)
let aborted_total t = total t (fun cs -> cs.aborted)
let exhausted_total t = total t (fun cs -> cs.exhausted)
let shed_total t = total t (fun cs -> cs.shed)

let throughput_ktps t label ~horizon ~clock =
  let secs = Sim.Clock.sec_of_cycles clock horizon in
  if secs <= 0. then 0. else float_of_int (committed t label) /. secs /. 1000.

let pct_us hist ~pct ~clock =
  if Sim.Histogram.is_empty hist then None
  else Some (Sim.Clock.us_of_cycles clock (Sim.Histogram.percentile hist pct))

let latency_us t label ~pct ~clock =
  match find t label with None -> None | Some cs -> pct_us cs.end_to_end ~pct ~clock

let sched_latency_us t label ~pct ~clock =
  match find t label with None -> None | Some cs -> pct_us cs.scheduling ~pct ~clock

let commit_wait_us t label ~pct ~clock =
  match find t label with None -> None | Some cs -> pct_us cs.commit_wait ~pct ~clock

let geomean_latency_us t label ~clock =
  match Hashtbl.find_opt t.by_class label with
  | Some i when i.log_n > 0 ->
    let cycles = exp (i.log_sum /. float_of_int i.log_n) in
    Some (Sim.Clock.us_of_cycles clock (Int64.of_float cycles))
  | Some _ | None -> None
