(* Failover controller.

   Armed on the detector's suspect edge: promote the replica (apply the
   persisted prefix — already done incrementally — discard the torn
   tail, resume timestamps), then prove the promoted engine serves a
   re-pointed request stream by committing a burst of probe transactions
   into a dedicated probe table (kept out of the user tables so state
   oracles can compare them against the primary).

   RTO is measured crash -> promotion-complete in virtual µs when the
   injector reported the crash time ([note_primary_crash]); otherwise it
   falls back to detection -> promotion (the detectable part).  RPO is
   not measured here — it is a property of the primary's acked set vs the
   promoted prefix, computed by the runner/oracle which can see both
   sides. *)

let probe_table = "__failover_probe"

type outcome = {
  fo_detected_us : float;
  fo_promoted_us : float;
  fo_rto_us : float;
  fo_applied_lsn : int;
  fo_torn : int;
  fo_probe_commits : int;
}

type t = {
  des : Sim.Des.t;
  clock : Sim.Clock.t;
  obs : Obs.Sink.t option;
  replica : Replica.t;
  detector : Failure_detector.t;
  mutable crash_time : int64 option;
  mutable outcome_ : outcome option;
}

(* Probe commits run on the promoted engine: a fixed count. *)
let probes = 8

let run_probes eng =
  let table = Storage.Engine.create_table eng probe_table in
  let ok = ref 0 in
  for i = 1 to probes do
    let txn = Storage.Engine.begin_txn eng ~worker:0 ~ctx:0 in
    ignore (Storage.Engine.insert eng txn table (Storage.Value.of_fields [| Storage.Value.Int i |]));
    match Storage.Engine.commit eng txn with
    | Ok _ -> incr ok
    | Error _ -> Storage.Engine.abort eng txn
  done;
  !ok

let emit t ev =
  match t.obs with
  | Some s ->
    Obs.Sink.record s ~time:(Sim.Des.now t.des) ~wid:Obs.Sink.repl_track ~ctx:0 ev
  | None -> ()

let promote t =
  match t.outcome_ with
  | Some o -> o
  | None ->
    let eng, applied_lsn, torn = Replica.promote t.replica in
    let probe_commits = run_probes eng in
    let now = Sim.Des.now t.des in
    let us at = Sim.Clock.us_of_cycles t.clock at in
    let detected =
      match Failure_detector.suspected_at t.detector with
      | Some at -> at
      | None -> now
    in
    let since = match t.crash_time with Some c -> c | None -> detected in
    let o =
      {
        fo_detected_us = us detected;
        fo_promoted_us = us now;
        fo_rto_us = us (Int64.sub now since);
        fo_applied_lsn = applied_lsn;
        fo_torn = torn;
        fo_probe_commits = probe_commits;
      }
    in
    t.outcome_ <- Some o;
    emit t
      (Obs.Event.Failover_promoted
         { applied_lsn; torn; rto_us = int_of_float o.fo_rto_us });
    o

let create ?obs des ~clock ~replica ~detector () =
  let t =
    {
      des;
      clock;
      obs;
      replica;
      detector;
      crash_time = None;
      outcome_ = None;
    }
  in
  Failure_detector.set_on_suspect detector (Some (fun () -> ignore (promote t)));
  t

let note_primary_crash t = t.crash_time <- Some (Sim.Des.now t.des)
let outcome t = t.outcome_
let promoted t = t.outcome_ <> None
