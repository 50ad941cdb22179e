module P = Workload.Program
module Hw = Uintr.Hw_thread
module Receiver = Uintr.Receiver
module Switch = Uintr.Switch
module Tcb = Uintr.Tcb
module Cls = Uintr.Cls
module Region = Uintr.Region
module Err = Storage.Err

type stats = {
  mutable passive_switches : int;
  mutable active_switches : int;
  mutable drops_region : int;
  mutable drops_window : int;
  mutable uintr_recognized : int;
  mutable coop_yield_checks : int;
  mutable coop_yields_taken : int;
  mutable busy_cycles : int;
  mutable hp_context_cycles : int;
  mutable retries : int;
  mutable exhausted : int;
  mutable gc_preempted : int;
  mutable dur_parks : int;
  mutable dur_unparks : int;
  mutable dur_immediate : int;  (* commit waits acked without parking *)
  mutable dur_block_cycles : int;  (* blocking ablation: spin cycles *)
  mutable gate_parks : int;  (* 2PC gate waits that parked the context *)
  mutable gate_unparks : int;
  mutable gate_immediate : int;  (* gates already resolved at the wait *)
  mutable gate_block_cycles : int;  (* blocking ablation: gate spin cycles *)
}

type slot = {
  mutable req : Request.t option;
  mutable step : P.step option;
  mutable env : P.env option;
  mutable attempts : int;
  mutable blocked_since : int; (* local cycles, -1 = not blocked *)
      (* set while the slot's transaction is at its Commit_wait op (before
         parking, or across blocking-mode re-checks) *)
  mutable commutes : bool;
      (* [step] is a pending op that commutes with every other worker's
         steps ({!Workload.Program.pending_commutes}) *)
}

(* A transaction parked on commit durability or on a 2PC gate: everything
   needed to reinstall it on its context when the completion interrupt
   arrives.  The continuation [pk] resumes past the wait charge. *)
type wait_kind = Wait_lsn of int | Wait_gate of int

type parked = {
  preq : Request.t;
  penv : P.env;
  pk : P.resumption;
  pattempts : int;
  parked_at : int;  (* publish time (local cycles), for the commit-wait histogram *)
  pkind : wait_kind;
}

type t = {
  wid : int;
  cfg : Config.t;
  mutable mode : Config.policy;
      (* the worker's live policy: starts as cfg.policy, overridden per
         worker by graceful degradation (Preempt -> Cooperative) and
         restored on recovery *)
  mutable cost_mult_pct : int;  (* straggler model: 100 = nominal speed *)
  mutable region_stall : (unit -> int) option;  (* fault: extra cycles in regions *)
  des : Sim.Des.t;
  obs : Obs.Sink.t option;
  hw : Hw.t;
  fabric : Uintr.Fabric.t;
  mutable uitt_index_ : int;  (* registered with [actor], at create *)
  eng : Storage.Engine.t;
  queues : Request.t Bounded_queue.t array;  (* index = priority level *)
  metrics : Metrics.t;
  slots : slot array;  (* index = context = level for preemptive serving *)
  mutable lp_start : int;  (* T0 *)
  mutable hp_accum : int;  (* Th *)
  mutable record_accesses : int;  (* towards the cooperative yield interval *)
  mutable yield_hints : int;  (* towards the handcrafted block interval *)
  mutable local : int;
      (* the worker-local clock, in cycles.  A native int on purpose: it is
         bumped by every micro-op charge, and boxed int64 arithmetic here
         dominated the simulator's allocation profile. *)
  mutable killed : bool;
      (* fail-stop (primary crash under failover): activations become
         no-ops, queued and in-flight requests are dropped *)
  mutable dropped_at_kill : int;
  mutable actor : int;
      (* this worker's actor id on [des], registered once at create with
         the cached [fun des -> activate t des] *)
  mutable stepper : (P.op -> bool) option;
      (* [Some (fun op -> inline_step t op)], built once at create: offered
         every charge of a program this worker resumes *)
  mutable coop_due : bool;
      (* the last op paid owes a cooperative yield check at the next
         boundary, after its program code ran *)
  mutable coop_hint : bool;  (* ... and that op was a [Yield_hint] *)
  mutable op_probe : (t -> P.op -> unit) option;
  mutable dur : Durability.Daemon.t option;
  mutable dur_blocking : bool;
  mutable gates : Uintr.Gate.t option;
  mutable gate_blocking : bool;
  resumes : parked Queue.t array;  (* per context: unparked, ready to resume *)
  mutable parked_count : int;
  prof : Obs.Profiler.worker;  (* cycle-accounting slice for this worker *)
  mutable resume_flow : int;
      (* flow id of the last passive switch whose first post-switch action
         has not yet run: stamps the switch->resume stage, then -1 *)
  st : stats;
}

(* Conflict-class aborts are retryable; a User_abort is a legitimate final
   outcome (TPC-C's 1 % NewOrder rollback). *)
let retryable = function
  | P.Aborted (Err.Write_conflict | Err.Read_validation | Err.Latch_deadlock) -> true
  | P.Aborted Err.User_abort | P.Committed _ -> false

let create ?obs ?prof ~des ~cfg ~fabric ~metrics ~eng ~id () =
  let levels = cfg.Config.n_priority_levels in
  if levels < 2 then invalid_arg "Worker.create: need at least 2 priority levels";
  let hw = Hw.create ?obs ~n_contexts:levels ~id ~costs:cfg.Config.uintr_costs () in
  (* The regular context starts as the running one. *)
  (Hw.context hw 0).Tcb.state <- Tcb.Running;
  let prof =
    let p = match prof with Some p -> p | None -> Obs.Profiler.create () in
    Obs.Profiler.worker p ~wid:id
  in
  {
    wid = id;
    cfg;
    mode = cfg.Config.policy;
    cost_mult_pct = 100;
    region_stall = None;
    des;
    obs;
    hw;
    fabric;
    uitt_index_ = -1;
    eng;
    queues =
      Array.init levels (fun level ->
          Bounded_queue.create
            ~capacity:
              (if level = 0 then cfg.Config.lp_queue_size else cfg.Config.hp_queue_size));
    metrics;
    slots =
      Array.init levels (fun _ ->
          {
            req = None;
            step = None;
            env = None;
            attempts = 0;
            blocked_since = -1;
            commutes = false;
          });
    lp_start = 0;
    hp_accum = 0;
    record_accesses = 0;
    yield_hints = 0;
    local = 0;
    killed = false;
    dropped_at_kill = 0;
    actor = -1;
    stepper = None;
    coop_due = false;
    coop_hint = false;
    op_probe = None;
    dur = None;
    dur_blocking = false;
    gates = None;
    gate_blocking = false;
    resumes = Array.init levels (fun _ -> Queue.create ());
    parked_count = 0;
    prof;
    resume_flow = -1;
    st =
      {
        passive_switches = 0;
        active_switches = 0;
        drops_region = 0;
        drops_window = 0;
        uintr_recognized = 0;
        coop_yield_checks = 0;
        coop_yields_taken = 0;
        busy_cycles = 0;
        hp_context_cycles = 0;
        retries = 0;
        exhausted = 0;
        gc_preempted = 0;
        dur_parks = 0;
        dur_unparks = 0;
        dur_immediate = 0;
        dur_block_cycles = 0;
        gate_parks = 0;
        gate_unparks = 0;
        gate_immediate = 0;
        gate_block_cycles = 0;
      };
  }

let id t = t.wid
let uitt_index t = t.uitt_index_
let hw t = t.hw
let stats t = t.st
let n_levels t = Array.length t.queues
let set_op_probe t f = t.op_probe <- f
let mode t = t.mode
let set_mode t p = t.mode <- p

let set_cost_multiplier_pct t pct =
  if pct < 1 then invalid_arg "Worker.set_cost_multiplier_pct: need >= 1";
  t.cost_mult_pct <- pct

(* The stall hook draws a shared RNG inside steps, so the steps of every
   worker must keep the order of the draws: a path of latency 0. *)
let set_region_stall t f =
  if Option.is_some f then Sim.Des.add_path t.des ~least_latency:0;
  t.region_stall <- f

let queued_requests t = Array.fold_left (fun acc q -> acc + Bounded_queue.length q) 0 t.queues

let set_durability t ~blocking daemon =
  t.dur <- daemon;
  t.dur_blocking <- blocking

let set_gates t ~blocking gates =
  t.gates <- gates;
  t.gate_blocking <- blocking

let parked_requests t = t.parked_count

(* Each wait kind keeps its own counter family: [dur_*] for commit waits,
   [gate_*] for 2PC gates. *)
let count_wait t kind what =
  let st = t.st in
  match (kind, what) with
  | Wait_lsn _, `Immediate -> st.dur_immediate <- st.dur_immediate + 1
  | Wait_lsn _, `Park -> st.dur_parks <- st.dur_parks + 1
  | Wait_lsn _, `Unpark -> st.dur_unparks <- st.dur_unparks + 1
  | Wait_lsn _, `Spin ->
    st.dur_block_cycles <- st.dur_block_cycles + Op_costs.default.commit_wait_spin
  | Wait_gate _, `Immediate -> st.gate_immediate <- st.gate_immediate + 1
  | Wait_gate _, `Park -> st.gate_parks <- st.gate_parks + 1
  | Wait_gate _, `Unpark -> st.gate_unparks <- st.gate_unparks + 1
  | Wait_gate _, `Spin ->
    st.gate_block_cycles <- st.gate_block_cycles + Op_costs.default.commit_wait_spin

let wait_key = function Wait_lsn lsn -> lsn | Wait_gate g -> g

(* Parked transactions stay in flight: they hold a request that is neither
   queued nor finished, and the conservation ledger must see it. *)
let inflight_requests t =
  Array.fold_left (fun acc s -> if s.req <> None then acc + 1 else acc) t.parked_count
    t.slots

(* Option tests on the per-op path match instead of calling the
   polymorphic [<>]. *)
let[@inline] is_some = function Some _ -> true | None -> false

(* Observability: typed events on the worker's track.  [t.obs = None] costs
   one branch per call site; the event payload is only built when a sink is
   attached (call sites guard with [has_obs]). *)
let has_obs t = is_some t.obs

let emit t ev =
  match t.obs with
  | None -> ()
  | Some s ->
    Obs.Sink.record s ~time:(Int64.of_int t.local) ~wid:t.wid
      ~ctx:(Hw.current_index t.hw) ev

(* For emissions outside an activation (enqueue from the scheduler): the
   worker's local clock may lag the global one. *)
let emit_at t ~time ev =
  match t.obs with
  | None -> ()
  | Some s -> Obs.Sink.record s ~time ~wid:t.wid ~ctx:(Hw.current_index t.hw) ev

let check_level t level name =
  if level < 0 || level >= n_levels t then
    invalid_arg (Printf.sprintf "Worker.%s: unknown level %d" name level)

let free_slots t ~level =
  check_level t level "free_slots";
  Bounded_queue.free_slots t.queues.(level)

let enqueue t ~level req =
  check_level t level "enqueue";
  if t.killed then false
  else
  let ok = Bounded_queue.push t.queues.(level) req in
  if ok && has_obs t then
    emit_at t
      ~time:(Int64.of_int (max t.local (Sim.Des.now_int t.des)))
      (Obs.Event.Enqueue { level; req = req.Request.id });
  ok

let lp_free_slots t = free_slots t ~level:0
let enqueue_hp t req = enqueue t ~level:1 req
let enqueue_lp t req = enqueue t ~level:0 req

let running_level t =
  match t.slots.(Hw.current_index t.hw).req with
  | Some req -> Request.rank req.Request.priority
  | None -> -1

(* A level has waiting work when its queue is non-empty or an unparked
   commit is ready to resume there. *)
let level_waiting t level =
  (not (Bounded_queue.is_empty t.queues.(level)))
  || not (Queue.is_empty t.resumes.(level))

(* Highest level with waiting requests strictly above [above]. *)
let highest_waiting t ~above =
  let rec scan level =
    if level <= above then None
    else if level_waiting t level then Some level
    else scan (level - 1)
  in
  scan (n_levels t - 1)

(* L = Th / (T1 - T0), anchored at the most recent low-priority start
   (Figure 7).  The level stays live between low-priority transactions so
   high-priority work burning the regular path also counts against the
   threshold — otherwise a queued Q2 could starve behind the hp queues. *)
let starvation_level t ~now =
  let elapsed = now - t.lp_start in
  if elapsed <= 0 then 0. else float_of_int t.hp_accum /. float_of_int elapsed

(* Every simulated cycle is paid here, and every payment carries a
   profiler attribution: [charge_b] for a bucket, [op_head] for a
   micro-op's class label, so no call site escapes cycle accounting (the
   conservation invariant: non-idle bucket cycles sum exactly to
   [busy_cycles]).  Returns the cycles actually paid, post straggler
   scaling, so attribution matches.  [hp]: the work counts toward the
   starvation level's Th (a preemptive context, or high-priority work). *)
let pay t ~ctx ~hp cycles =
  (* Straggler fault model: a slowed core pays more cycles for the same
     work (and for its backoff waits — a uniformly slower machine). *)
  let cycles = if t.cost_mult_pct = 100 then cycles else cycles * t.cost_mult_pct / 100 in
  t.local <- t.local + cycles;
  (* the step's clock: every virtual-time read inside the step sees it *)
  Sim.Des.set_actor_clock t.des t.local;
  t.st.busy_cycles <- t.st.busy_cycles + cycles;
  if ctx > 0 then t.st.hp_context_cycles <- t.st.hp_context_cycles + cycles;
  if hp then t.hp_accum <- t.hp_accum + cycles;
  cycles

let charge_raw t cycles =
  let ctx = Hw.current_index t.hw in
  pay t ~ctx ~hp:(ctx > 0 || running_level t > 0) cycles

let charge_b t bucket cycles = Obs.Profiler.account t.prof bucket (charge_raw t cycles)

let in_region t = Region.depth t.hw > 0

let is_preempt = function Config.Preempt _ -> true | _ -> false

let starvation_threshold t =
  match t.mode with Config.Preempt l -> l | _ -> 1.0

let make_env t ctx (req : Request.t) =
  {
    P.eng = t.eng;
    worker = t.wid;
    ctx;
    cls = (Hw.context t.hw ctx).Tcb.cls;
    rng = req.Request.rng;
  }

(* Voluntary switch to a higher-priority context (cooperative yields). *)
let coop_switch t ~target =
  t.st.coop_yields_taken <- t.st.coop_yields_taken + 1;
  t.st.active_switches <- t.st.active_switches + 1;
  if has_obs t then emit t (Obs.Event.Coop_yield { target });
  let cycles = Switch.active_switch ~now:(Int64.of_int t.local) t.hw ~target in
  charge_b t Obs.Profiler.Switch_active cycles

let maybe_coop_yield t =
  t.st.coop_yield_checks <- t.st.coop_yield_checks + 1;
  charge_b t Obs.Profiler.Coop_check t.cfg.Config.uintr_costs.Uintr.Costs.queue_op;
  if not (in_region t) then
    match highest_waiting t ~above:0 with
    | Some level -> coop_switch t ~target:level
    | None -> ()

let is_cooperative = function
  | Config.Cooperative _ | Config.Cooperative_handcrafted _ -> true
  | Config.Wait | Config.Preempt _ -> false

(* The part of a step before its program code runs: close a preemption's
   switch->resume stage (this is its first post-switch op), pay the op,
   advance the TCB, count toward the cooperative intervals, draw a fault
   stall, call the op probe, and note the cooperative check the op owes
   once its program code has run.  The running level is read once. *)
let op_head t ctx op =
  if t.resume_flow >= 0 then begin
    Uintr.Stages.on_resume (Uintr.Fabric.stages t.fabric) ~flow:t.resume_flow
      ~time:(Int64.of_int t.local);
    t.resume_flow <- -1
  end;
  let cost = Op_costs.cycles Op_costs.default op in
  let req = t.slots.(ctx).req in
  let level = match req with Some r -> Request.rank r.Request.priority | None -> -1 in
  let paid = pay t ~ctx ~hp:(ctx > 0 || level > 0) cost in
  (match req with
  | Some r when r.Request.maintenance ->
    Obs.Profiler.account t.prof
      (if r.Request.label = "GC" then Obs.Profiler.Gc else Obs.Profiler.Ckpt)
      paid
  | Some r -> Obs.Profiler.account_txn t.prof ~label:r.Request.label paid
  | None -> Obs.Profiler.account_txn t.prof ~label:"?" paid);
  let tcb = Hw.current t.hw in
  tcb.Tcb.rip <- tcb.Tcb.rip + 1;
  if P.is_record_access op then t.record_accesses <- t.record_accesses + 1;
  let hint = match op with P.Yield_hint -> true | _ -> false in
  if hint then t.yield_hints <- t.yield_hints + 1;
  (* Fault injection: stalls charged only inside non-preemptible regions —
     the worst place to be slow, since deliveries queue behind the region. *)
  (match t.region_stall with
  | Some f when in_region t ->
    let extra = f () in
    if extra > 0 then charge_b t Obs.Profiler.Fault_stall extra
  | _ -> ());
  (* Micro-op boundary hook: the schedule-exploration harness counts
     instruction boundaries here and injects forced interrupt posts. *)
  (match t.op_probe with Some f -> f t op | None -> ());
  (* Cooperative yield checks happen only on the regular context and only
     inside low-priority transactions (high-priority ones are processed
     without interruption, §6.1). *)
  t.coop_due <- ctx = 0 && level = 0 && is_cooperative t.mode;
  t.coop_hint <- hint

(* The cooperative check an op owes, taken at the boundary after its
   program code ran (inside a region or not, as the code left it). *)
let coop_check t =
  t.coop_due <- false;
  match t.mode with
  | Config.Cooperative interval when t.record_accesses >= interval ->
    t.record_accesses <- 0;
    maybe_coop_yield t
  | Config.Cooperative_handcrafted blocks when t.coop_hint && t.yield_hints >= blocks ->
    t.yield_hints <- 0;
    maybe_coop_yield t
  | Config.Cooperative _ | Config.Cooperative_handcrafted _ | Config.Wait
  | Config.Preempt _ ->
    ()

let[@inline] coop_boundary t = if t.coop_due then coop_check t

(* Store what a program run returned, with the commute flag of a pending
   op, then take the cooperative check its last inline op owes. *)
let set_step t slot step =
  slot.step <- Some step;
  slot.commutes <- (match step with P.Pending _ -> P.pending_commutes () | P.Finished _ -> false);
  coop_boundary t

let clear_step slot =
  slot.step <- None;
  slot.commutes <- false

(* A user interrupt will be recognized at this boundary (what
   [Receiver.recognize] is about to find, without consuming it). *)
let[@inline] uintr_due t slot =
  is_preempt t.mode && is_some slot.req
  &&
  let recv = Hw.receiver t.hw in
  Receiver.pending recv && Receiver.uif recv

let is_wait_op t = function
  | P.Commit_wait _ -> is_some t.dur
  | P.Gate_wait _ -> is_some t.gates
  | _ -> false

(* The step bound at this boundary: a commuting step may run ahead of
   other workers by less than the floor; any other keeps the tie rule. *)
let[@inline] within_bound t ~commutes =
  if commutes then Sim.Des.may_run_ahead t.des ~actor:t.actor ~local:t.local
  else Sim.Des.may_step t.des ~actor:t.actor ~local:t.local

(* A charge reached a boundary while this worker runs the program: take
   the step inline when [step_loop] would execute it at once — the owed
   cooperative check switches nothing away, the bound holds, no interrupt
   is due and the op is not a wait.  Otherwise decline: the program
   suspends and [step_loop] takes the same boundary. *)
let inline_step t op =
  let ctx = Hw.current_index t.hw in
  coop_boundary t;
  (* the checks are pure; the bound, the usual reason to decline, first *)
  Hw.current_index t.hw = ctx
  && within_bound t ~commutes:(P.pending_commutes ())
  && (not (is_wait_op t op))
  && (not (uintr_due t t.slots.(ctx)))
  &&
  (op_head t ctx op;
   true)

let execute_op t ctx op k =
  op_head t ctx op;
  let slot = t.slots.(ctx) in
  set_step t slot (P.resume ?stepper:t.stepper ~commutes:slot.commutes k)

let start_request t ctx (req : Request.t) =
  let slot = t.slots.(ctx) in
  if req.Request.started_at = None then
    req.Request.started_at <- Some (Int64.of_int t.local);
  if req.Request.priority = Request.Low then begin
    (* Starvation accounting (Figure 7): T0 at lp start, Th reset. *)
    t.lp_start <- t.local;
    t.hp_accum <- 0
  end;
  let env = make_env t ctx req in
  slot.req <- Some req;
  slot.env <- Some env;
  slot.attempts <- 1;
  if has_obs t then
    emit t
      (Obs.Event.Txn_begin
         {
           id = req.Request.id;
           label = req.Request.label;
           prio = Request.priority_to_string req.Request.priority;
           attempt = 1;
         });
  set_step t slot (P.start ?stepper:t.stepper req.Request.prog env)

(* Exponential backoff before a retry: 500 cycles doubled per attempt,
   capped at 100 000. *)
let retry_backoff ~attempts = min 100_000 (500 * (1 lsl min attempts 20))

let finish_request t ctx outcome =
  let slot = t.slots.(ctx) in
  match slot.req, slot.env with
  | Some req, Some env
    when retryable outcome && slot.attempts < t.cfg.Config.retry_max_attempts
    ->
    (* Conflict abort: back off (exponentially, capped) then restart the
       program; latency keeps accumulating on the original request.

       Unless a parked transaction is waiting to resume on this context:
       it already holds locks/latches (a 2PC participant keeps its prepare
       latches across the decision wait), and an in-place retry sits on
       the very slot it needs to resume and release them.  When the abort
       is a conflict with those latches, "retry until it yields" never
       yields — the whole worker deadlocks behind one parked commit.
       Requeue the request behind the resume instead (its latency clock
       keeps running); fall back to the in-place retry when its queue is
       full. *)
    let yielded =
      (not (Queue.is_empty t.resumes.(ctx)))
      && Bounded_queue.push t.queues.(Request.rank req.Request.priority) req
    in
    t.st.retries <- t.st.retries + 1;
    if yielded then begin
      if has_obs t then
        emit t
          (Obs.Event.Txn_retry
             { id = req.Request.id; label = req.Request.label; attempt = slot.attempts; backoff = 0 });
      charge_b t Obs.Profiler.Queue_op t.cfg.Config.uintr_costs.Uintr.Costs.queue_op;
      slot.req <- None;
      slot.env <- None;
      clear_step slot;
      slot.attempts <- 0
    end
    else begin
      let backoff = retry_backoff ~attempts:slot.attempts in
      if has_obs t then
        emit t
          (Obs.Event.Txn_retry
             {
               id = req.Request.id;
               label = req.Request.label;
               attempt = slot.attempts;
               backoff;
             });
      charge_b t Obs.Profiler.Retry_backoff backoff;
      slot.attempts <- slot.attempts + 1;
      (* no stepper: the restarted program's first op is a boundary of its
         own, after this finish's starvation check *)
      set_step t slot (P.start req.Request.prog env)
    end
  | Some req, _ ->
    (* Terminal: either a legitimate final outcome, or a retryable abort
       whose per-request budget just ran out. *)
    let exhausted = retryable outcome in
    req.Request.finished_at <- Some (Int64.of_int t.local);
    req.Request.outcome <- Some outcome;
    if exhausted then t.st.exhausted <- t.st.exhausted + 1;
    if has_obs t then
      emit t
        (match outcome with
        | P.Committed _ ->
          Obs.Event.Txn_commit { id = req.Request.id; label = req.Request.label }
        | P.Aborted r when exhausted ->
          Obs.Event.Txn_exhausted
            {
              id = req.Request.id;
              label = req.Request.label;
              attempts = slot.attempts;
              reason = Err.abort_reason_to_string r;
            }
        | P.Aborted r ->
          Obs.Event.Txn_abort
            {
              id = req.Request.id;
              label = req.Request.label;
              reason = Err.abort_reason_to_string r;
            });
    Metrics.record_finish ~exhausted t.metrics req;
    slot.req <- None;
    slot.env <- None;
    clear_step slot;
    slot.attempts <- 0
  | None, _ -> assert false

(* A recognized user interrupt: run the handler (Algorithm 1), switching to
   the context of the highest waiting level. *)
let handle_uintr t ~flow ~target =
  t.st.uintr_recognized <- t.st.uintr_recognized + 1;
  let stages = Uintr.Fabric.stages t.fabric in
  let preempted = t.slots.(Hw.current_index t.hw).req in
  match
    Switch.passive_switch ~honor_regions:t.cfg.Config.regions_enabled
      ~now:(Int64.of_int t.local) t.hw ~target
  with
  | Switch.Switched cycles ->
    t.st.passive_switches <- t.st.passive_switches + 1;
    (match preempted with
    | Some req ->
      req.Request.preemptions <- req.Request.preemptions + 1;
      if req.Request.maintenance then t.st.gc_preempted <- t.st.gc_preempted + 1
    | None -> ());
    charge_b t Obs.Profiler.Switch_passive cycles;
    if flow >= 0 then begin
      Uintr.Stages.on_switch stages ~flow ~time:(Int64.of_int t.local);
      t.resume_flow <- flow
    end
  | Switch.Rejected_region cycles ->
    t.st.drops_region <- t.st.drops_region + 1;
    charge_b t Obs.Profiler.Uintr_reject cycles;
    if flow >= 0 then Uintr.Stages.on_reject stages ~flow
  | Switch.Rejected_window cycles ->
    t.st.drops_window <- t.st.drops_window + 1;
    charge_b t Obs.Profiler.Uintr_reject cycles;
    if flow >= 0 then Uintr.Stages.on_reject stages ~flow

(* Switch back from context [from_ctx] to the next context that has work:
   the highest paused context below it, or a lower preemptive level whose
   queue still holds requests (so an urgent batch hands over to the
   high-priority queue before the regular context resumes), or context 0. *)
let switch_back t ~from_ctx =
  let rec find_target ctx =
    if ctx = 0 then 0
    else if t.slots.(ctx).req <> None then ctx
    else if level_waiting t ctx then ctx
    else find_target (ctx - 1)
  in
  let target = find_target (from_ctx - 1) in
  t.st.active_switches <- t.st.active_switches + 1;
  let cycles =
    Switch.active_switch ~retire:true ~now:(Int64.of_int t.local) t.hw ~target
  in
  charge_b t Obs.Profiler.Switch_active cycles

let rec activate t des =
  if not t.killed then begin
    t.local <- Sim.Des.now_int des;
    step_loop t des
  end

and step_loop t des =
  (* Run-ahead bound (the tie rule, {!Sim.Des.may_step}; a commuting op
     may look ahead, {!Sim.Des.may_run_ahead}): step only while this step
     is the schedule's next item — an event at [local] runs first, and so
     does a lower-id worker due at [local].  Otherwise re-arm at [local]
     and let it run. *)
  let slot = t.slots.(Hw.current_index t.hw) in
  (* a due interrupt makes the next step the handler, which does not commute *)
  if not (within_bound t ~commutes:(slot.commutes && not (uintr_due t slot))) then
    Sim.Des.wake_actor des t.actor ~time:t.local
  else begin
    let recv = Hw.receiver t.hw in
    (* User-interrupt recognition at a micro-op boundary (preemptive policy
       only).  The handler — not the recognition — decides what to do:
       - work of a level strictly above the running request's waits:
         switch to that level's context;
       - nothing higher waits but the running work is low-priority (or the
         interrupt was empty, Fig. 8): switch to context 1, whose
         acquire path immediately switches back — the "bounce";
       - the running request is already high priority: return without
         switching (§4.1's no-nested-preemption rule, generalized —
         pausing a writer would also strand its in-flight versions and
         livelock the preempting context on write conflicts). *)
    let busy = is_some slot.req in
    if is_preempt t.mode && busy && Receiver.recognize recv then begin
      let flow = Receiver.last_flow recv in
      if flow >= 0 then
        Uintr.Stages.on_recognize (Uintr.Fabric.stages t.fabric) ~flow
          ~time:(Int64.of_int t.local);
      if has_obs t then emit t (Obs.Event.Uintr_recognize { flow });
      let run_level = running_level t in
      (match highest_waiting t ~above:run_level with
      | Some target -> handle_uintr t ~flow ~target
      | None ->
        if run_level <= 0 then handle_uintr t ~flow ~target:1
        else begin
          (* handler returns straight to the in-progress hp transaction *)
          t.st.uintr_recognized <- t.st.uintr_recognized + 1;
          let costs = Hw.costs t.hw in
          charge_b t Obs.Profiler.Uintr_handler
            (costs.Uintr.Costs.handler_entry + costs.Uintr.Costs.handler_exit);
          if flow >= 0 then
            Uintr.Stages.on_reject (Uintr.Fabric.stages t.fabric) ~flow;
          Receiver.stui recv
        end);
      step_loop t des
    end
    else begin
      let ctx = Hw.current_index t.hw in
      let slot = t.slots.(ctx) in
      match slot.step with
      | Some (P.Pending (P.Commit_wait lsn, k)) when is_some t.dur ->
        wait t des ctx (Wait_lsn lsn) k
      | Some (P.Pending (P.Gate_wait g, k)) when is_some t.gates ->
        wait t des ctx (Wait_gate g) k
      | Some (P.Pending (op, k)) ->
        execute_op t ctx op k;
        step_loop t des
      | Some (P.Finished outcome) ->
        finish_request t ctx outcome;
        if ctx > 0 then
          charge_b t Obs.Profiler.Starvation_check
            t.cfg.Config.uintr_costs.Uintr.Costs.rdtscp
          (* the post-transaction starvation check reads the TSC *);
        step_loop t des
      | None -> acquire_work t des ctx
    end
  end

(* The transaction on [ctx] reached a wait op.  A [Commit_wait lsn] has
   its writes committed in memory but is only acknowledged once marker
   [lsn] is durable; a [Gate_wait g] is inside a 2PC round trip — a
   coordinator waiting for votes or a participant waiting for the decision
   — and the resumed program reads the gate's value itself.  Both take the
   same three paths:
   - already resolved: ack immediately and resume;
   - blocking ablation: hold the context, re-asking after a spin quantum
     (the match above did not consume the continuation — [slot.step] still
     carries the pending op, so every activation re-enters here).  The
     charge advances [local] past the next daemon or fabric event, and the
     run-ahead check at the top of [step_loop] defers this worker until it
     fires;
   - preemptible wait (the headline): park the transaction with the daemon
     or the gate registry and free the slot, so this hardware thread
     immediately acquires other work; the flush completion, vote, decision
     or timeout sends a user interrupt whose recognition resumes the parked
     continuation. *)
and wait t des ctx kind k =
  let slot = t.slots.(ctx) in
  let label =
    match slot.req with Some r -> r.Request.label | None -> assert false
  in
  let first = slot.blocked_since < 0 in
  if first then begin
    (* Publish the wait — charged once, at the first encounter;
       blocking-mode re-checks only pay the spin quantum. *)
    let op = match kind with Wait_lsn lsn -> P.Commit_wait lsn | Wait_gate g -> P.Gate_wait g in
    charge_b t Obs.Profiler.Commit_publish (Op_costs.cycles Op_costs.default op);
    let tcb = Hw.current t.hw in
    tcb.Tcb.rip <- tcb.Tcb.rip + 1;
    (match t.op_probe with Some f -> f t op | None -> ());
    slot.blocked_since <- t.local
  end;
  let ready =
    match kind with
    | Wait_lsn lsn -> Durability.Daemon.try_ack (Option.get t.dur) ~lsn
    | Wait_gate g -> Uintr.Gate.ready (Option.get t.gates) g
  in
  if ready then begin
    let waited =
      if slot.blocked_since >= 0 then
        Int64.of_int (t.local - slot.blocked_since)
      else 0L
    in
    slot.blocked_since <- -1;
    if first then count_wait t kind `Immediate;
    Metrics.record_commit_wait t.metrics label waited;
    set_step t slot (P.resume ?stepper:t.stepper k);
    step_loop t des
  end
  else if (match kind with Wait_lsn _ -> t.dur_blocking | Wait_gate _ -> t.gate_blocking)
  then begin
    charge_b t Obs.Profiler.Commit_spin Op_costs.default.commit_wait_spin;
    count_wait t kind `Spin;
    step_loop t des
  end
  else begin
    let p = park_slot t slot k ~kind in
    count_wait t kind `Park;
    if has_obs t then emit t (Obs.Event.Commit_park { lsn = wait_key kind });
    let notify () =
      (* Resolution (daemon or message context): hand the transaction back
         to its context's resume queue and nudge the worker through the
         production interrupt path. *)
      Queue.push p t.resumes.(ctx);
      Uintr.Fabric.senduipi t.fabric t.uitt_index_;
      Sim.Des.wake_actor t.des t.actor ~time:(Sim.Des.now_int t.des)
    in
    (match kind with
    | Wait_lsn lsn -> Durability.Daemon.park (Option.get t.dur) ~lsn ~notify
    | Wait_gate g -> Uintr.Gate.park (Option.get t.gates) g ~notify);
    step_loop t des
  end

(* Evacuate the slot's transaction into a [parked] record; the context is
   free as soon as the caller returns to [step_loop]. *)
and park_slot t slot k ~kind =
  let req = match slot.req with Some r -> r | None -> assert false in
  let env = match slot.env with Some e -> e | None -> assert false in
  let p =
    {
      preq = req;
      penv = env;
      pk = k;
      pattempts = slot.attempts;
      parked_at = (if slot.blocked_since >= 0 then slot.blocked_since else t.local);
      pkind = kind;
    }
  in
  slot.req <- None;
  slot.env <- None;
  clear_step slot;
  slot.attempts <- 0;
  slot.blocked_since <- -1;
  t.parked_count <- t.parked_count + 1;
  p

(* Reinstall a parked transaction on its (now free) context and resume it
   past the Commit_wait / Gate_wait: the wait is over. *)
and unpark t des ctx (p : parked) =
  (* The unpark is the first post-switch action when the resume came in on
     the flush-completion interrupt: close its switch->resume stage. *)
  if t.resume_flow >= 0 then begin
    Uintr.Stages.on_resume (Uintr.Fabric.stages t.fabric) ~flow:t.resume_flow
      ~time:(Int64.of_int t.local);
    t.resume_flow <- -1
  end;
  let slot = t.slots.(ctx) in
  t.parked_count <- t.parked_count - 1;
  count_wait t p.pkind `Unpark;
  charge_b t Obs.Profiler.Commit_unpark Op_costs.default.commit_unpark;
  let waited = max 0 (t.local - p.parked_at) in
  Metrics.record_commit_wait t.metrics p.preq.Request.label (Int64.of_int waited);
  if has_obs t then
    emit t (Obs.Event.Commit_unpark { lsn = wait_key p.pkind; wait = waited });
  slot.req <- Some p.preq;
  slot.env <- Some p.penv;
  slot.attempts <- p.pattempts;
  set_step t slot (P.resume ?stepper:t.stepper p.pk);
  step_loop t des

and acquire_work t des ctx =
  (* Unparked commits resume before any new work is admitted: they hold
     finished (in-memory) transactions whose latency clock is running, and
     they already passed admission when first dispatched. *)
  match Queue.take_opt t.resumes.(ctx) with
  | Some p -> unpark t des ctx p
  | None ->
  if ctx > 0 then begin
    (* Preemptive context: drain this level's queue unless the starvation
       level exceeds the threshold (§5). *)
    let starved = starvation_level t ~now:t.local > starvation_threshold t in
    if starved then begin
      switch_back t ~from_ctx:ctx;
      step_loop t des
    end
    else begin
      match Bounded_queue.pop t.queues.(ctx) with
      | Some req ->
        charge_b t Obs.Profiler.Queue_op t.cfg.Config.uintr_costs.Uintr.Costs.queue_op;
        if has_obs t then
          emit t (Obs.Event.Dequeue { level = ctx; req = req.Request.id });
        start_request t ctx req;
        step_loop t des
      | None ->
        switch_back t ~from_ctx:ctx;
        step_loop t des
    end
  end
  else begin
    (* A resume stranded on a higher context would wait for that context
       to become current again — but it may never: the recognize path only
       switches up for work strictly above the running rank, and this
       regular context admits high-priority requests itself, so a steady
       hp stream keeps the running rank at the resume's own level forever
       while the parked transaction sits on its latches.  The regular
       context runs work of any rank, so drain those resumes here, before
       any new admission. *)
    let rec resume_above level =
      if level <= 0 then None
      else
        match Queue.take_opt t.resumes.(level) with
        | Some _ as p -> p
        | None -> resume_above (level - 1)
    in
    match resume_above (n_levels t - 1) with
    | Some p -> unpark t des ctx p
    | None ->
    (* Regular context.  Wait/Cooperative exhaust the higher-priority
       queues first (§6.1).  Under the preemptive policy the regular path
       also prefers higher-priority work — but defers to the lp queue once
       the starvation level exceeds the threshold, so a flood of
       high-priority requests cannot starve queued long transactions
       through this path (Fig. 12). *)
    let hp_first =
      match t.mode with
      | Config.Wait | Config.Cooperative _ | Config.Cooperative_handcrafted _ -> true
      | Config.Preempt threshold -> starvation_level t ~now:t.local <= threshold
    in
    let pop level =
      match Bounded_queue.pop t.queues.(level) with
      | Some req as picked ->
        if has_obs t then emit t (Obs.Event.Dequeue { level; req = req.Request.id });
        picked
      | None -> None
    in
    let pop_descending ~down_to =
      let rec scan level = if level < down_to then None else
          match pop level with Some r -> Some r | None -> scan (level - 1)
      in
      scan (n_levels t - 1)
    in
    let picked =
      if hp_first then pop_descending ~down_to:0
      else match pop 0 with Some r -> Some r | None -> pop_descending ~down_to:1
    in
    match picked with
    | Some req ->
      charge_b t Obs.Profiler.Queue_op t.cfg.Config.uintr_costs.Uintr.Costs.queue_op;
      start_request t 0 req;
      step_loop t des
    | None -> () (* idle: a wake will reschedule us *)
  end

let wake t =
  if not t.killed then Sim.Des.wake_actor t.des t.actor ~time:(Sim.Des.now_int t.des)

(* Fail-stop the worker (primary crash under failover): pending
   activations become no-ops, queued/in-flight/parked requests are
   dropped — their acks, if any, were already recorded by the daemon,
   which is what the failover oracle audits. *)
let kill t =
  if not t.killed then begin
    t.killed <- true;
    let dropped = ref 0 in
    Array.iter
      (fun q ->
        let rec drain () =
          match Bounded_queue.pop q with
          | Some _ ->
            incr dropped;
            drain ()
          | None -> ()
        in
        drain ())
      t.queues;
    Array.iter
      (fun s ->
        if s.req <> None then incr dropped;
        s.req <- None;
        clear_step s;
        s.env <- None;
        s.blocked_since <- -1)
      t.slots;
    Array.iter
      (fun q ->
        dropped := !dropped + Queue.length q;
        Queue.clear q)
      t.resumes;
    t.parked_count <- 0;
    t.dropped_at_kill <- !dropped
  end

let killed t = t.killed
let dropped_at_kill t = t.dropped_at_kill

(* Finish construction: the activation closure needs [activate], defined
   above, so [create] is completed here.  One closure per worker, reused
   for every activation it ever has; workers register in creation order,
   which is the tie rule's worker-id order.  An event sink numbers its
   records in host order, which only lock-step keeps in virtual order: a
   path of latency 0. *)
let create ?obs ?prof ~des ~cfg ~fabric ~metrics ~eng ~id () =
  let t = create ?obs ?prof ~des ~cfg ~fabric ~metrics ~eng ~id () in
  if Option.is_some obs then Sim.Des.add_path des ~least_latency:0;
  t.actor <- Sim.Des.add_actor des (fun des -> activate t des);
  t.uitt_index_ <- Uintr.Fabric.register fabric (Hw.receiver t.hw);
  t.stepper <- Some (fun op -> inline_step t op);
  t
