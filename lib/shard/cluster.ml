module Config = Preemptdb.Config
module Metrics = Preemptdb.Metrics
module Worker = Preemptdb.Worker
module Sched_thread = Preemptdb.Sched_thread
module Request = Preemptdb.Request
module Runner = Preemptdb.Runner
module P = Workload.Program
module Sc = Workload.Tpcc_schema
module Tpcc = Workload.Tpcc
module Tpcc_db = Workload.Tpcc_db
module Tpcc_rand = Workload.Tpcc_rand
module Idx = Workload.Idx
module Engine = Storage.Engine
module Txn = Storage.Txn
module Value = Storage.Value
module Err = Storage.Err
open Storage.Value

(* Global transaction ids live far above single-shard txn ids so a gid is
   recognizable in logs and artifacts; the decision timestamp is a dense
   function of the gid so every shard derives the same global commit
   timestamp without another round trip. *)
let gid_base = 0x4000_0000
let decision_ts gid = Int64.of_int (1_000_000_000 + (gid - gid_base))

(* The prepare timeout sits an order of magnitude above a healthy round
   trip (~2-6 µs) so only real failures trip it, and well under the
   horizon so orphaned coordinators drain. *)
let prepare_timeout_us = 200.0

(* Participant prepare-latch spins before voting no: 2PC holds remote
   latches across a fabric round trip, so unbounded spinning would let
   one straggler wedge a shard. *)
let latch_budget = 64

type shard = {
  sid : int;
  node : Runner.assembly;  (* engine, metrics, workers, log + daemon *)
  log : Durability.Log.t;
  db : Tpcc_db.t;
  part_writes : Storage.Txn.writes;  (* a participant slice's write set *)
  mutable sched : Sched_thread.t option;
  gates : Uintr.Gate.t;
  coord : Coordinator.t;
  owned : int array;  (* warehouses this shard homes *)
  foreign : int array;  (* everyone else's warehouses *)
  decision_gates : (int, int) Hashtbl.t;  (* gid → participant decision gate *)
  seen_prepares : (int, unit) Hashtbl.t;
  preaborted : (int, unit) Hashtbl.t;  (* Abort overtook its Prepare in flight *)
  inject_rng : Sim.Rng.t;  (* request streams for injected participant work *)
  mutable rr : int;  (* round-robin injection cursor *)
  mutable crashed : bool;
  mutable xs_started : int;
  mutable xs_committed : int;
  mutable xs_aborted : int;
  mutable prepares_recv : int;
  mutable votes_yes : int;
  mutable votes_no : int;
  mutable decisions_commit : int;
  mutable decisions_abort : int;
  mutable inject_retries : int;
  mutable inject_drops : int;
}

type t = {
  des : Sim.Des.t;
  clock : Sim.Clock.t;
  fabric : Uintr.Fabric.t;
  cfg : Config.t;
  sp : Config.shard_policy;
  router : Router.t;
  shards : shard array;
  links : Msg.t Uintr.Channel.t array array;  (* [src].[dst]; diagonal unused *)
  origins : bool array;
  bug_early_vote : bool;
  timeout_cycles : int;
  host : Runner.host;
  mutable next_gid : int;
  mutable horizon : int64;
  mutable wall_s : float;
}

let des t = t.des
let clock t = t.clock
let n_shards t = Array.length t.shards
let policy t = t.sp
let horizon t = t.horizon
let wall_s t = t.wall_s
let engine t ~sid = t.shards.(sid).node.Runner.eng
let log t ~sid = t.shards.(sid).log
let metrics t ~sid = t.shards.(sid).node.Runner.metrics
let workers t ~sid = t.shards.(sid).node.Runner.workers
let crashed t ~sid = t.shards.(sid).crashed
let events_processed t = Sim.Des.events_processed t.des

(* Every shard's workers share the host's profiler. *)
let schedule_digest t =
  Runner.schedule_digest
    (Array.to_list (Array.map (fun s -> s.node.Runner.metrics) t.shards))
    t.shards.(0).node.Runner.prof
let coord_pending t ~sid = Coordinator.pending t.shards.(sid).coord
let decision_waits t ~sid = Hashtbl.length t.shards.(sid).decision_gates

let coordinator_labels = [ "NewOrder"; "Payment"; "NewOrderX"; "PaymentX" ]

let fresh_gid t =
  let g = t.next_gid in
  t.next_gid <- t.next_gid + 1;
  g

let send t ~src ~dst msg = Uintr.Channel.send t.links.(src).(dst) ~bytes:(Msg.bytes msg) msg

(* -- transaction building blocks ----------------------------------------- *)

let not_found what =
  failwith (Printf.sprintf "Shard.Cluster: %s not found (misrouted operation?)" what)

let read_via (env : P.env) txn table idx key what =
  match Idx.probe_int idx key with
  | None -> not_found what
  | Some oid -> (
    match P.read env txn table ~oid with
    | Some row -> oid, row
    | None -> not_found what)

(* Local prepare: acquire the planned commit latches and validate, but do
   NOT install — the transaction stays [Preparing], latches held, until
   the 2PC decision.  Unlike {!Program.commit}'s unbounded spin, a
   cross-thread latch conflict only spins [budget] rounds before giving up
   (a participant must not block the whole protocol on a hot latch — it
   votes no and the coordinator retries). *)
let prepare_txn (env : P.env) ~budget txn =
  P.non_preemptible env (fun () ->
      Engine.commit_begin env.P.eng txn;
      let rec latch_loop spins =
        P.charge P.Commit_latch;
        match Engine.commit_latch_next env.P.eng txn with
        | `Acquired -> latch_loop spins
        | `Done -> Ok ()
        | `Busy owner -> (
          match Engine.active_txn env.P.eng owner with
          | Some o when o.Txn.worker = env.P.worker -> Error Err.Latch_deadlock
          | Some _ | None ->
            if spins >= budget then Error Err.Latch_deadlock
            else begin
              P.charge (P.Spin 200);
              latch_loop (spins + 1)
            end)
      in
      match latch_loop 0 with
      | Error r -> Error r
      | Ok () ->
        P.charge P.Commit_validate;
        Engine.commit_validate env.P.eng txn)

(* Install a prepared transaction (latches are still held from the prepare)
   and append the -4 hygiene marker in the same non-preemptible region. *)
let install_prepared (env : P.env) s ~gid txn =
  P.non_preemptible env (fun () ->
      let n = List.length txn.Txn.writes in
      P.charge (P.Commit_install n);
      let ts = Engine.commit_install env.P.eng txn in
      ignore (Durability.Log.append_twopc_install s.log ~worker:env.P.worker ~gid ~commit_ts:ts);
      ts)

let stock_deduct (env : P.env) db txn ~w ~i ~qty ~remote =
  let soid, srow = read_via env txn db.Tpcc_db.stock db.Tpcc_db.stock_idx (Sc.stock_key ~w ~i) "stock" in
  let s_qty = Value.int_exn srow Sc.S.quantity in
  let new_qty = if s_qty >= qty + 10 then s_qty - qty else s_qty - qty + 91 in
  let srow = Value.set srow Sc.S.quantity (Int new_qty) in
  let srow = Value.add_float srow Sc.S.ytd (float_of_int qty) in
  let srow = Value.add_int srow Sc.S.order_cnt 1 in
  let srow = if remote then Value.add_int srow Sc.S.remote_cnt 1 else srow in
  P.update env txn db.Tpcc_db.stock ~oid:soid srow

let apply_rop (env : P.env) db txn = function
  | Msg.Stock_deduct { w; i; qty; remote } -> stock_deduct env db txn ~w ~i ~qty ~remote
  | Msg.Customer_pay { w; d; c; amount } ->
    let coid, crow =
      read_via env txn db.Tpcc_db.customer db.Tpcc_db.customer_idx (Sc.customer_key ~w ~d ~c)
        "customer"
    in
    let crow = Value.add_float crow Sc.C.balance (-.amount) in
    let crow = Value.add_float crow Sc.C.ytd_payment amount in
    let crow = Value.add_int crow Sc.C.payment_cnt 1 in
    P.update env txn db.Tpcc_db.customer ~oid:coid crow

(* -- coordinator programs ------------------------------------------------ *)

(* Group a NewOrder's foreign order lines by owning shard. *)
let group_lines t ~home lines =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (i, supply_w, qty) ->
      if supply_w <> home then begin
        let p = Router.shard_of t.router supply_w in
        let prev = try Hashtbl.find tbl p with Not_found -> [] in
        Hashtbl.replace tbl p (Msg.Stock_deduct { w = supply_w; i; qty; remote = true } :: prev)
      end)
    lines;
  Hashtbl.fold (fun p ops acc -> (p, List.rev ops) :: acc) tbl [] |> List.sort compare

(* The shared 2PC coordinator skeleton: fan out prepares, run the local
   slice ([body]), prepare locally, wait for the prepare record's flush,
   park on the vote gate, then decide.  Any local failure before the
   decision releases the participants with [Abort]s; conflict aborts keep
   their retryable reason (the worker's retry re-runs the program, which
   mints a fresh gid). *)
let run_2pc t s env ~writes ~groups ~body =
  let participants = List.map fst groups in
  let gid = fresh_gid t in
  let gate = Coordinator.register s.coord ~gid ~participants in
  s.xs_started <- s.xs_started + 1;
  List.iter
    (fun (p, ops) -> send t ~src:s.sid ~dst:p (Msg.Prepare { gid; origin = s.sid; ops }))
    groups;
  let txn = P.begin_txn ~writes env in
  try
    body txn;
    (match prepare_txn env ~budget:latch_budget txn with
    | Error r -> raise (P.Txn_failed r)
    | Ok () -> ());
    let plsn = Durability.Log.append_prepare s.log ~worker:env.P.worker ~gid txn in
    P.charge (P.Commit_wait plsn);
    let at = Sim.Des.now_int t.des + t.timeout_cycles in
    Sim.Des.schedule_at_int t.des ~time:at (fun _ -> Coordinator.timeout s.coord ~gid);
    P.charge (P.Gate_wait gate);
    if Uintr.Gate.value s.gates gate = 1 then begin
      let gts = decision_ts gid in
      let dlsn =
        Durability.Log.append_decision s.log ~worker:env.P.worker ~gid ~commit_ts:gts
          ~participants
      in
      (* The decision record's durability is the distributed commit point:
         only after it may any participant learn the outcome. *)
      P.charge (P.Commit_wait dlsn);
      List.iter (fun p -> send t ~src:s.sid ~dst:p (Msg.Commit { gid; ts = gts })) participants;
      let ts = install_prepared env s ~gid txn in
      (match txn.Txn.commit_lsn with
      | Some l -> P.charge (P.Commit_wait l)
      | None -> ());
      s.xs_committed <- s.xs_committed + 1;
      P.Committed ts
    end
    else begin
      List.iter (fun p -> send t ~src:s.sid ~dst:p (Msg.Abort { gid })) participants;
      s.xs_aborted <- s.xs_aborted + 1;
      P.charge P.Txn_abort;
      Engine.abort ~reason:Err.User_abort env.P.eng txn;
      P.Aborted Err.User_abort
    end
  with P.Txn_failed r ->
    (* Every worker of the shard shares the coordinator table and each
       link's jitter RNG and sequence counter: only a step that does not
       commute keeps these in virtual order. *)
    P.check_ordered "the 2PC abort path";
    Coordinator.cancel s.coord ~gid;
    List.iter (fun p -> send t ~src:s.sid ~dst:p (Msg.Abort { gid })) participants;
    (match txn.Txn.state with
    | Txn.Active | Txn.Preparing ->
      P.charge P.Txn_abort;
      Engine.abort ~reason:r env.P.eng txn
    | Txn.Committed | Txn.Aborted -> ());
    s.xs_aborted <- s.xs_aborted + 1;
    P.Aborted r

(* Cross-shard NewOrder: the home slice (district sequence, order +
   order-line rows) runs locally; foreign order lines ship their stock
   deducts to the owning shards.  Line 0 is forced foreign so a cross
   transaction always has at least one participant. *)
let sharded_new_order t s ~home_w env =
  let db = s.db in
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let c = Tpcc_rand.customer_id_scaled rng ~customers:cfg.Sc.customers in
  let ol_cnt = Sim.Rng.int_in rng 5 15 in
  let n_foreign = Array.length s.foreign in
  let lines =
    List.init ol_cnt (fun idx ->
        let i = Tpcc_rand.item_id_scaled rng ~items:cfg.Sc.items in
        let qty = Sim.Rng.int_in rng 1 10 in
        let foreign = n_foreign > 0 && (idx = 0 || Sim.Rng.int rng 100 < 50) in
        let supply_w =
          if foreign then s.foreign.(Sim.Rng.int rng n_foreign) else w
        in
        (i, supply_w, qty))
  in
  let groups = group_lines t ~home:w lines in
  let body txn =
    let _, wrow = read_via env txn db.warehouse db.warehouse_idx w "warehouse" in
    let w_tax = Value.float_exn wrow Sc.W.tax in
    let doid, drow =
      read_via env txn db.district db.district_idx (Sc.district_key ~w ~d) "district"
    in
    let d_tax = Value.float_exn drow Sc.D.tax in
    let o_id = Value.int_exn drow Sc.D.next_o_id in
    P.update env txn db.district ~oid:doid (Value.add_int drow Sc.D.next_o_id 1);
    (* past the update's charge, which does not commute: the abort path
       sends on the shard's links *)
    if o_id > Sc.max_order then raise (P.Txn_failed Err.User_abort);
    let _, crow =
      read_via env txn db.customer db.customer_idx (Sc.customer_key ~w ~d ~c) "customer"
    in
    let c_discount = Value.float_exn crow Sc.C.discount in
    let otuple =
      P.insert env txn db.orders
        (Value.of_fields [| Int w; Int d; Int o_id; Int c; Int (-1); Int ol_cnt; Int 0; Int 0 |])
    in
    Idx.insert_int env txn db.orders_idx ~key:(Sc.order_key ~w ~d ~o:o_id)
      ~oid:otuple.Storage.Tuple.oid;
    Idx.insert_int env txn db.orders_by_customer_idx
      ~key:(Sc.order_by_customer_key ~w ~d ~c ~o:o_id)
      ~oid:otuple.Storage.Tuple.oid;
    let ntuple = P.insert env txn db.new_order (Value.of_fields [| Int w; Int d; Int o_id |]) in
    Idx.insert_int env txn db.new_order_idx
      ~key:(Sc.new_order_key ~w ~d ~o:o_id)
      ~oid:ntuple.Storage.Tuple.oid;
    List.iteri
      (fun idx (i, supply_w, qty) ->
        let _, irow = read_via env txn db.item db.item_idx i "item" in
        let price = Value.float_exn irow Sc.I.price in
        (* Foreign stock is deducted by the owning shard's participant
           slice; the home slice only prices the line. *)
        if supply_w = w then stock_deduct env db txn ~w ~i ~qty ~remote:false;
        let amount = float_of_int qty *. price in
        let n = idx + 1 in
        let oltuple =
          P.insert env txn db.order_line
            (Value.of_fields
               [|
                 Int w;
                 Int d;
                 Int o_id;
                 Int n;
                 Int i;
                 Int supply_w;
                 Int qty;
                 Float (amount *. (1.0 +. w_tax +. d_tax) *. (1.0 -. c_discount));
                 Int (-1);
                 Str "dist-info-dist-info-dist";
               |])
        in
        Idx.insert_int env txn db.order_line_idx
          ~key:(Sc.order_line_key ~w ~d ~o:o_id ~n)
          ~oid:oltuple.Storage.Tuple.oid)
      lines;
    P.compute 500
  in
  run_2pc t s env ~writes:db.Tpcc_db.new_order_writes ~groups ~body

(* Cross-shard Payment: warehouse/district ytd at home, the customer side
   shipped to the shard owning the remote warehouse. *)
let sharded_payment t s ~home_w env =
  let db = s.db in
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = home_w in
  let d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let amount = Sim.Rng.float rng 4999.0 +. 1.0 in
  let n_foreign = Array.length s.foreign in
  let c_w = s.foreign.(Sim.Rng.int rng n_foreign) in
  let c_d = Sim.Rng.int_in rng 1 cfg.Sc.districts in
  let c = Tpcc_rand.customer_id_scaled rng ~customers:cfg.Sc.customers in
  let groups =
    [ (Router.shard_of t.router c_w, [ Msg.Customer_pay { w = c_w; d = c_d; c; amount } ]) ]
  in
  let body txn =
    let woid, wrow = read_via env txn db.warehouse db.warehouse_idx w "warehouse" in
    P.update env txn db.warehouse ~oid:woid (Value.add_float wrow Sc.W.ytd amount);
    let doid, drow =
      read_via env txn db.district db.district_idx (Sc.district_key ~w ~d) "district"
    in
    P.update env txn db.district ~oid:doid (Value.add_float drow Sc.D.ytd amount);
    ignore
      (P.insert env txn db.history
         (Value.of_fields [| Int c_w; Int c_d; Int 0; Float amount; Int 0 |]));
    P.compute 300
  in
  run_2pc t s env ~writes:db.Tpcc_db.payment_writes ~groups ~body

(* -- participant program ------------------------------------------------- *)

(* Re-execute the shipped slice, prepare, log -3, wait for its flush, vote
   yes, park on the decision gate.  Failure paths vote no with a
   non-retryable outcome — re-running a participant slice would duplicate
   the vote; the coordinator owns retry.  The [bug_early_vote] flag skips
   the prepare-durability wait, the injected protocol violation the
   atomicity oracle's self-test must catch. *)
let participant_body t s ~gid ~origin ~ops env =
  let txn = P.begin_txn ~writes:s.part_writes env in
  let res =
    try
      List.iter (apply_rop env s.db txn) ops;
      prepare_txn env ~budget:latch_budget txn
    with P.Txn_failed r -> Error r
  in
  match res with
  | Error r ->
    (match txn.Txn.state with
    | Txn.Active | Txn.Preparing ->
      P.charge P.Txn_abort;
      Engine.abort ~reason:r env.P.eng txn
    | Txn.Committed | Txn.Aborted -> ());
    s.votes_no <- s.votes_no + 1;
    send t ~src:s.sid ~dst:origin (Msg.Vote { gid; shard = s.sid; yes = false });
    P.Aborted Err.User_abort
  | Ok () ->
    let plsn = Durability.Log.append_prepare s.log ~worker:env.P.worker ~gid txn in
    (* Register the decision gate before the vote leaves: the commit frame
       may arrive while this context is anywhere below. *)
    let g = Uintr.Gate.fresh s.gates in
    Hashtbl.replace s.decision_gates gid g;
    if Hashtbl.mem s.preaborted gid then begin
      (* The coordinator timed out during our latch/validate charges —
         its Abort found no gate to resolve and parked in [preaborted].
         Consume it: parking now would wait forever for a decision that
         already came and went.  No vote owed to a dead round. *)
      Hashtbl.remove s.preaborted gid;
      Hashtbl.remove s.decision_gates gid;
      Uintr.Gate.resolve s.gates g ~value:0
    end
    else begin
      if not t.bug_early_vote then P.charge (P.Commit_wait plsn);
      s.votes_yes <- s.votes_yes + 1;
      send t ~src:s.sid ~dst:origin (Msg.Vote { gid; shard = s.sid; yes = true })
    end;
    P.charge (P.Gate_wait g);
    if Uintr.Gate.value s.gates g = 1 then begin
      let ts = install_prepared env s ~gid txn in
      (match txn.Txn.commit_lsn with
      | Some l -> P.charge (P.Commit_wait l)
      | None -> ());
      P.Committed ts
    end
    else begin
      P.charge P.Txn_abort;
      Engine.abort ~reason:Err.User_abort env.P.eng txn;
      P.Aborted Err.User_abort
    end

let participant_prog t s ~gid ~origin ~ops env =
  if Hashtbl.mem s.preaborted gid then begin
    (* The coordinator timed out and aborted while this slice sat in the
       dispatch queue: nothing started, nothing to undo, no vote owed. *)
    Hashtbl.remove s.preaborted gid;
    P.Aborted Err.User_abort
  end
  else participant_body t s ~gid ~origin ~ops env

(* -- message handling ---------------------------------------------------- *)

(* Hand the participant slice to a worker: round-robin over the shard's
   pool, preempt-notify like the scheduling thread's dispatch, retry on
   full queues from a DES event (bounded — a dropped prepare simply times
   out at the coordinator). *)
let inject t s req =
  let workers = s.node.Runner.workers in
  let n = Array.length workers in
  let rec attempt tries =
    if s.crashed then ()
    else begin
      let placed = ref false in
      let k = ref 0 in
      while (not !placed) && !k < n do
        let w = workers.((s.rr + !k) mod n) in
        if Worker.enqueue_hp w req then begin
          placed := true;
          s.rr <- (s.rr + !k + 1) mod n;
          (match t.cfg.Config.policy with
          | Config.Preempt _ -> Uintr.Fabric.senduipi t.fabric (Worker.uitt_index w)
          | _ -> ());
          Worker.wake w
        end;
        incr k
      done;
      if not !placed then begin
        if tries >= 200 then s.inject_drops <- s.inject_drops + 1
        else begin
          s.inject_retries <- s.inject_retries + 1;
          let delay = Int64.to_int (Sim.Clock.cycles_of_us t.clock 2.0) in
          Sim.Des.schedule_at_int t.des
            ~time:(Sim.Des.now_int t.des + delay)
            (fun _ -> attempt (tries + 1))
        end
      end
    end
  in
  attempt 0

let handle_msg t ~dst msg =
  let s = t.shards.(dst) in
  if not s.crashed then
    match msg with
    | Msg.Prepare { gid; origin; ops } ->
      if Hashtbl.mem s.seen_prepares gid then ()  (* duplicated delivery *)
      else if Hashtbl.mem s.preaborted gid then begin
        (* The coordinator already gave up on this gid (its abort overtook
           the prepare in flight): don't start work that must abort. *)
        Hashtbl.remove s.preaborted gid;
        Hashtbl.replace s.seen_prepares gid ()
      end
      else begin
        Hashtbl.replace s.seen_prepares gid ();
        s.prepares_recv <- s.prepares_recv + 1;
        let req =
          Request.make ~id:(Runner.next_request_id t.host) ~label:"XPart" ~priority:Request.High
            ~prog:(participant_prog t s ~gid ~origin ~ops)
            ~rng:(Sim.Rng.split s.inject_rng)
            ~submitted_at:(Sim.Des.now t.des)
        in
        inject t s req
      end
    | Msg.Vote { gid; shard; yes } -> Coordinator.on_vote s.coord ~gid ~shard ~yes
    | Msg.Commit { gid; ts = _ } -> (
      match Hashtbl.find_opt s.decision_gates gid with
      | Some g ->
        Hashtbl.remove s.decision_gates gid;
        s.decisions_commit <- s.decisions_commit + 1;
        Uintr.Gate.resolve s.gates g ~value:1
      | None -> ())
    | Msg.Abort { gid } -> (
      match Hashtbl.find_opt s.decision_gates gid with
      | Some g ->
        Hashtbl.remove s.decision_gates gid;
        s.decisions_abort <- s.decisions_abort + 1;
        Uintr.Gate.resolve s.gates g ~value:0
      | None ->
        (* No gate yet: either the abort overtook its prepare in flight,
           or the participant slice is still queued / mid-prepare and
           will look here before parking.  Either way the verdict must
           not be dropped — an unresolvable decision gate parks a
           context (and its latches) forever. *)
        Hashtbl.replace s.preaborted gid ())

(* -- assembly ------------------------------------------------------------ *)

let create ~cfg ?tpcc_cfg ?origins ?(bug_early_vote = false) ?(arrival_interval_us = 40.)
    () =
  let sp =
    match cfg.Config.shard with
    | Some sp -> sp
    | None -> invalid_arg "Cluster.create: cfg.shard not set (use Config.with_shard)"
  in
  (match cfg.Config.durability with
  | None -> invalid_arg "Cluster.create: sharded 2PC requires cfg.durability"
  | Some dp when dp.Config.du_ckpt_interval_us > 0. ->
    invalid_arg "Cluster.create: checkpointing is not supported in a sharded cluster"
  | Some _ -> ());
  if cfg.Config.replication <> None then
    invalid_arg "Cluster.create: replication is not supported in a sharded cluster";
  if cfg.Config.reclaim <> None then
    invalid_arg "Cluster.create: reclamation is not supported in a sharded cluster";
  let n = sp.Config.sh_shards in
  let tpcc_cfg =
    match tpcc_cfg with
    | Some c -> c
    | None ->
      (* One warehouse per worker cluster-wide; per-line remote supply off
         — cross-warehouse work goes through the 2PC path instead. *)
      { (Sc.small ~warehouses:(n * cfg.Config.n_workers)) with Sc.remote_pct = 0 }
  in
  if tpcc_cfg.Sc.warehouses < n then
    invalid_arg
      (Printf.sprintf "Cluster.create: %d warehouses cannot cover %d shards"
         tpcc_cfg.Sc.warehouses n);
  let router = Router.create ~shards:n ~warehouses:tpcc_cfg.Sc.warehouses in
  (* The fabric splits the DES root RNG, and so does each link: the host
     must exist before the shards and the links after them. *)
  let host = Runner.host cfg in
  let des = host.Runner.h_des and fabric = host.Runner.h_fabric in
  let clock = Sim.Des.clock des in
  let all_w = Array.init tpcc_cfg.Sc.warehouses (fun i -> i + 1) in
  let shards =
    Array.init n (fun sid ->
        let node = Runner.assemble ~host cfg in
        let db = Tpcc_db.create node.Runner.eng tpcc_cfg in
        let load_rng = Sim.Rng.create (Int64.add cfg.Config.seed (Int64.of_int (1 + sid))) in
        Tpcc_db.load ~owns:(fun w -> Router.shard_of router w = sid) db load_rng;
        let gates = Uintr.Gate.create () in
        Array.iter
          (fun w -> Worker.set_gates w ~blocking:sp.Config.sh_blocking (Some gates))
          node.Runner.workers;
        let owned = Router.warehouses_of router sid in
        let foreign = Array.of_list (List.filter (fun w -> Router.shard_of router w <> sid) (Array.to_list all_w)) in
        {
          sid;
          node;
          log = (Option.get node.Runner.dur).Runner.dur_log;
          db;
          part_writes =
            Storage.Txn.declare ~tables:[ db.Tpcc_db.stock; db.Tpcc_db.customer ] ();
          sched = None;
          gates;
          coord = Coordinator.create ~gates;
          owned;
          foreign;
          decision_gates = Hashtbl.create 64;
          seen_prepares = Hashtbl.create 64;
          preaborted = Hashtbl.create 16;
          inject_rng = Sim.Rng.create (Int64.add cfg.Config.seed (Int64.of_int (500 + sid)));
          rr = 0;
          crashed = false;
          xs_started = 0;
          xs_committed = 0;
          xs_aborted = 0;
          prepares_recv = 0;
          votes_yes = 0;
          votes_no = 0;
          decisions_commit = 0;
          decisions_abort = 0;
          inject_retries = 0;
          inject_drops = 0;
        })
  in
  let links =
    Array.init n (fun src ->
        Array.init n (fun dst ->
            Uintr.Channel.create des ~fabric ~name:(Printf.sprintf "link-%d-%d" src dst)))
  in
  let origins_arr = Array.make n true in
  (match origins with
  | None -> ()
  | Some os ->
    Array.fill origins_arr 0 n false;
    List.iter (fun o -> origins_arr.(o) <- true) os);
  let t =
    {
      des;
      clock;
      fabric;
      cfg;
      sp;
      router;
      shards;
      links;
      origins = origins_arr;
      bug_early_vote;
      timeout_cycles = Int64.to_int (Sim.Clock.cycles_of_us clock prepare_timeout_us);
      host;
      next_gid = gid_base;
      horizon = 0L;
      wall_s = 0.;
    }
  in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then Uintr.Channel.set_on_deliver t.links.(src).(dst) (handle_msg t ~dst)
    done
  done;
  (* One scheduling thread per shard, driving its own warehouses. *)
  Array.iter
    (fun s ->
      let gen_rng = Sim.Rng.create (Int64.add cfg.Config.seed (Int64.of_int (100 + s.sid))) in
      let n_owned = Array.length s.owned in
      let hp_gen ~submitted_at =
        let rng = Sim.Rng.split gen_rng in
        let home_w = s.owned.(Sim.Rng.int gen_rng n_owned) in
        let new_order = Sim.Rng.bool gen_rng in
        let cross =
          t.origins.(s.sid)
          && Array.length s.foreign > 0
          && Sim.Rng.int gen_rng 100 < sp.Config.sh_cross_pct
        in
        let label, prog =
          match new_order, cross with
          | true, false -> "NewOrder", Tpcc.new_order s.db ~home_w
          | false, false -> "Payment", Tpcc.payment s.db ~home_w
          | true, true -> "NewOrderX", sharded_new_order t s ~home_w
          | false, true -> "PaymentX", sharded_payment t s ~home_w
        in
        Request.make ~id:(Runner.next_request_id t.host) ~label ~priority:Request.High ~prog ~rng
          ~submitted_at
      in
      let sched =
        Sched_thread.create ~des ~cfg ~fabric ~metrics:s.node.Runner.metrics
          ~workers:s.node.Runner.workers ~hp_gen ~hp_batch:1
          ~arrival_interval:(Sim.Clock.cycles_of_us clock arrival_interval_us)
          ()
      in
      s.sched <- Some sched)
    shards;
  t

(* -- run / crash --------------------------------------------------------- *)

let run t ~horizon_sec =
  let horizon = Sim.Clock.cycles_of_sec t.clock horizon_sec in
  t.horizon <- horizon;
  Array.iter (fun s -> Option.iter (Runner.start s.node) s.sched) t.shards;
  t.wall_s <- Runner.run_des t.des ~horizon;
  Array.iter (fun s -> Runner.close_idle s.node ~horizon) t.shards

let crash_shard t ~sid ~rng =
  let s = t.shards.(sid) in
  if not s.crashed then begin
    s.crashed <- true;
    Runner.crash_primary s.node ~rng;
    for other = 0 to Array.length t.shards - 1 do
      if other <> sid then begin
        Uintr.Channel.sever t.links.(sid).(other);
        Uintr.Channel.sever t.links.(other).(sid)
      end
    done
  end

(* -- stats --------------------------------------------------------------- *)

type shard_stats = {
  ss_sid : int;
  ss_crashed : bool;
  ss_committed : int;
  ss_aborted : int;
  ss_xs_started : int;
  ss_xs_committed : int;
  ss_xs_aborted : int;
  ss_coord_timeouts : int;
  ss_prepares_recv : int;
  ss_votes_yes : int;
  ss_votes_no : int;
  ss_decisions_commit : int;
  ss_decisions_abort : int;
  ss_late_votes : int;
  ss_dup_votes : int;
  ss_inject_retries : int;
  ss_inject_drops : int;
  ss_gate_parks : int;
  ss_gate_unparks : int;
  ss_gate_immediate : int;
  ss_gate_block_cycles : int;
  ss_parked_left : int;
  ss_flushes : int;
  ss_durable_lsn : int;
  ss_link_sends : int;
  ss_link_bytes : int;
}

let stats t =
  Array.map
    (fun s ->
      let workers = s.node.Runner.workers in
      let sum f = Array.fold_left (fun acc w -> acc + f (Worker.stats w)) 0 workers in
      let link_sends = ref 0 and link_bytes = ref 0 in
      Array.iteri
        (fun dst ch ->
          if dst <> s.sid then begin
            link_sends := !link_sends + Uintr.Channel.sends ch;
            link_bytes := !link_bytes + Uintr.Channel.bytes_sent ch
          end)
        t.links.(s.sid);
      {
        ss_sid = s.sid;
        ss_crashed = s.crashed;
        ss_committed = Metrics.committed_total s.node.Runner.metrics;
        ss_aborted = Metrics.aborted_total s.node.Runner.metrics;
        ss_xs_started = s.xs_started;
        ss_xs_committed = s.xs_committed;
        ss_xs_aborted = s.xs_aborted;
        ss_coord_timeouts = Coordinator.timeouts s.coord;
        ss_prepares_recv = s.prepares_recv;
        ss_votes_yes = s.votes_yes;
        ss_votes_no = s.votes_no;
        ss_decisions_commit = s.decisions_commit;
        ss_decisions_abort = s.decisions_abort;
        ss_late_votes = Coordinator.late_votes s.coord;
        ss_dup_votes = Coordinator.dup_votes s.coord;
        ss_inject_retries = s.inject_retries;
        ss_inject_drops = s.inject_drops;
        ss_gate_parks = sum (fun st -> st.Worker.gate_parks);
        ss_gate_unparks = sum (fun st -> st.Worker.gate_unparks);
        ss_gate_immediate = sum (fun st -> st.Worker.gate_immediate);
        ss_gate_block_cycles = sum (fun st -> st.Worker.gate_block_cycles);
        ss_parked_left = Array.fold_left (fun acc w -> acc + Worker.parked_requests w) 0 workers;
        ss_flushes = Durability.Daemon.flushes (Option.get s.node.Runner.dur).Runner.dur_daemon;
        ss_durable_lsn = Durability.Log.durable_lsn s.log;
        ss_link_sends = !link_sends;
        ss_link_bytes = !link_bytes;
      })
    t.shards
