type outcome = Switched of int | Rejected_region of int | Rejected_window of int

let resume_target t ~target =
  let tcb = Hw_thread.context t target in
  (match Stack_model.top_frame tcb.Tcb.stack with
  | Some _ ->
    let frame = Stack_model.pop_frame tcb.Tcb.stack in
    Tcb.restore tcb frame
  | None -> () (* fresh context: starts at its current rip *));
  tcb.Tcb.state <- Tcb.Running;
  Hw_thread.set_current t target

let suspend_current t =
  let tcb = Hw_thread.current t in
  Stack_model.push_frame tcb.Tcb.stack (Tcb.snapshot tcb);
  tcb.Tcb.state <- Tcb.Paused

(* Observability: switches stamp their events with the worker's run-ahead
   local time when the caller provides it; with no [now] (or no sink on the
   hardware thread) nothing is emitted. *)
let emit t now ev =
  match Hw_thread.obs t, now with
  | Some sink, Some time ->
    Obs.Sink.record sink ~time ~wid:(Hw_thread.id t) ~ctx:(Hw_thread.current_index t) ev
  | _ -> ()

(* Introspection feed for the checking harness: report a completed switch
   with the departing context's region depth/rip (captured by the caller
   before the suspend) and the resumed context's restored state. *)
let monitor t ~kind ~from_ctx ~target ~retire ~region_depth ~from_rip ~restored_frame =
  match Hw_thread.switch_monitor t with
  | None -> ()
  | Some f ->
    let to_tcb = Hw_thread.context t target in
    let from_tcb = Hw_thread.context t from_ctx in
    f
      {
        Hw_thread.sw_kind = kind;
        sw_from = from_ctx;
        sw_to = target;
        sw_retire = retire;
        sw_region_depth = region_depth;
        sw_from_rip = from_rip;
        sw_to_rip = to_tcb.Tcb.rip;
        sw_restored_frame = restored_frame;
        sw_from_frame_depth = Stack_model.frame_depth from_tcb.Tcb.stack;
      }

let passive_switch ?(honor_regions = true) ?now t ~target =
  if target = Hw_thread.current_index t then
    invalid_arg "Switch.passive_switch: target is the current context";
  let costs = Hw_thread.costs t in
  let recv = Hw_thread.receiver t in
  let from_ctx = Hw_thread.current_index t in
  if Hw_thread.in_swap_window t then begin
    (* Algorithm 1 lines 2-6: early uiret, no stack operations. *)
    Receiver.stui recv;
    emit t now (Obs.Event.Reject_window { cycles = 20 });
    Rejected_window 20
  end
  else begin
    (* Hardware pushed the uintr frame; the handler saved registers and
       called the C++ helper — all folded into [handler_entry]. *)
    let entry = costs.Costs.handler_entry in
    if honor_regions && Region.in_region t then begin
      (* Helper sees a non-zero lock counter: hand the current rsp straight
         back so the handler pops and uirets into the same context. *)
      Receiver.stui recv;
      let cycles = entry + costs.Costs.handler_exit in
      emit t now (Obs.Event.Reject_region { cycles });
      Rejected_region cycles
    end
    else begin
      let region_depth = Region.depth t in
      let from_rip = (Hw_thread.current t).Tcb.rip in
      let restored_frame = Stack_model.top_frame (Hw_thread.context t target).Tcb.stack <> None in
      suspend_current t;
      resume_target t ~target;
      Receiver.stui recv;
      let cycles = Costs.passive_switch_total costs in
      emit t now (Obs.Event.Passive_switch { from_ctx; to_ctx = target; cycles });
      monitor t ~kind:`Passive ~from_ctx ~target ~retire:false ~region_depth ~from_rip
        ~restored_frame;
      Switched cycles
    end
  end

let active_switch ?(retire = false) ?now t ~target =
  if target = Hw_thread.current_index t then
    invalid_arg "Switch.active_switch: target is the current context";
  let costs = Hw_thread.costs t in
  let recv = Hw_thread.receiver t in
  let from_ctx = Hw_thread.current_index t in
  (* Algorithm 2: the whole routine runs with user interrupts disabled; the
     stui..jmp tail is covered by the instruction-pointer window, which we
     model by the swap_window flag being observable by [passive_switch]. *)
  Hw_thread.set_swap_window t true;
  Receiver.clui recv;
  let region_depth = Region.depth t in
  let from_rip = (Hw_thread.current t).Tcb.rip in
  let restored_frame = Stack_model.top_frame (Hw_thread.context t target).Tcb.stack <> None in
  let departing = Hw_thread.current t in
  if retire then begin
    departing.Tcb.state <- Tcb.Free;
    Tcb.recycle departing
  end
  else suspend_current t;
  let tcb = Hw_thread.context t target in
  resume_target t ~target;
  (* Model line 8: once rsp is restored, the saved rip is staged below the
     resumed stack's red zone for the final indirect jump. *)
  Stack_model.scratch_write tcb.Tcb.stack tcb.Tcb.rip;
  Receiver.stui recv;
  Hw_thread.set_swap_window t false;
  let cycles = Costs.active_switch_total costs in
  emit t now (Obs.Event.Active_switch { from_ctx; to_ctx = target; cycles; retire });
  monitor t ~kind:`Active ~from_ctx ~target ~retire ~region_depth ~from_rip ~restored_frame;
  cycles
