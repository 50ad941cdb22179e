(* Tests for the simulated user-interrupt machinery: CLS, stacks/frames,
   TCBs, receiver (UPID/UIF), fabric, non-preemptible regions, and the
   passive/active context-switch protocol of §4.2. *)

module Cls = Uintr.Cls
module Costs = Uintr.Costs
module Frame = Uintr.Frame
module Stack = Uintr.Stack_model
module Tcb = Uintr.Tcb
module Receiver = Uintr.Receiver
module Fabric = Uintr.Fabric
module Hw = Uintr.Hw_thread
module Region = Uintr.Region
module Switch = Uintr.Switch

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* -- CLS ------------------------------------------------------------------ *)

let counter_slot = Cls.slot ~name:"test-counter" ~init:(fun () -> 0)
let name_slot = Cls.slot ~name:"test-name" ~init:(fun () -> "fresh")

let test_cls_init_and_set () =
  let a = Cls.create_area () in
  checki "lazy init" 0 (Cls.get a counter_slot);
  Alcotest.(check string) "lazy init string" "fresh" (Cls.get a name_slot);
  Cls.set a counter_slot 42;
  checki "set/get" 42 (Cls.get a counter_slot);
  Cls.update a counter_slot succ;
  checki "update" 43 (Cls.get a counter_slot)

let test_cls_areas_isolated () =
  let a = Cls.create_area () and b = Cls.create_area () in
  Cls.set a counter_slot 1;
  Cls.set b counter_slot 2;
  checki "area a" 1 (Cls.get a counter_slot);
  checki "area b" 2 (Cls.get b counter_slot)

let test_cls_init_runs_per_area () =
  let calls = ref 0 in
  let s =
    Cls.slot ~name:"counting"
      ~init:(fun () ->
        incr calls;
        !calls)
  in
  let a = Cls.create_area () and b = Cls.create_area () in
  checki "first area init" 1 (Cls.get a s);
  checki "cached" 1 (Cls.get a s);
  checki "second area init" 2 (Cls.get b s)

let test_cls_reset () =
  let a = Cls.create_area () in
  Cls.set a counter_slot 9;
  Cls.reset a;
  checki "initializer reruns" 0 (Cls.get a counter_slot)

let test_cls_slot_name () =
  Alcotest.(check string) "name" "test-counter" (Cls.slot_name counter_slot)

(* -- Costs ----------------------------------------------------------------- *)

let test_costs () =
  let c = Costs.default in
  checki "passive total"
    (c.Costs.handler_entry + c.Costs.cls_swap + c.Costs.handler_exit)
    (Costs.passive_switch_total c);
  checki "active total"
    (c.Costs.clui + c.Costs.swap_context + c.Costs.cls_swap + c.Costs.stui)
    (Costs.active_switch_total c);
  (* The modeled delivery sits under the paper's 1 us ceiling. *)
  checkb "delivery under 1us at 2.4GHz" true (c.Costs.senduipi + c.Costs.delivery < 2400);
  checki "zero model" 0 (Costs.passive_switch_total Costs.zero)

(* -- Stack model ------------------------------------------------------------ *)

let test_stack_push_pop () =
  let st = Stack.create ~id:1 () in
  let sp0 = Stack.sp st in
  let f = Frame.make ~rip:7 ~rsp:sp0 ~rflags:0x202 ~gprs:123 ~xstate:456 in
  Stack.push_frame st f;
  checki "red zone skipped" (sp0 - Stack.red_zone_bytes - Frame.bytes) (Stack.sp st);
  checki "depth" 1 (Stack.frame_depth st);
  let popped = Stack.pop_frame st in
  checkb "roundtrip" true (f = popped);
  checki "sp restored" sp0 (Stack.sp st);
  checki "depth zero" 0 (Stack.frame_depth st)

let test_stack_overflow () =
  let st = Stack.create ~size:2048 ~id:2 () in
  let f = Frame.make ~rip:0 ~rsp:0 ~rflags:0 ~gprs:0 ~xstate:0 in
  Stack.push_frame st f;
  checkb "second push overflows" true
    (match Stack.push_frame st f with
    | () -> false
    | exception Stack.Overflow _ -> true)

let test_stack_scratch () =
  let st = Stack.create ~id:3 () in
  Stack.scratch_write st 99;
  checki "scratch read" 99 (Stack.scratch_read st);
  let empty = Stack.create ~id:4 () in
  Alcotest.check_raises "empty scratch" (Invalid_argument "Stack_model.scratch_read: empty")
    (fun () -> ignore (Stack.scratch_read empty))

let test_stack_too_small () =
  Alcotest.check_raises "tiny stack" (Invalid_argument "Stack_model.create: stack too small")
    (fun () -> ignore (Stack.create ~size:64 ~id:5 ()))

(* -- TCB --------------------------------------------------------------------- *)

let test_tcb_snapshot_restore () =
  let tcb = Tcb.create ~id:1 () in
  tcb.Tcb.rip <- 17;
  tcb.Tcb.gprs <- 0xdead;
  tcb.Tcb.xstate <- 0xbeef;
  let snap = Tcb.snapshot tcb in
  tcb.Tcb.rip <- 0;
  tcb.Tcb.gprs <- 0;
  Tcb.restore tcb snap;
  checki "rip restored" 17 tcb.Tcb.rip;
  checki "gprs restored" 0xdead tcb.Tcb.gprs;
  checki "xstate restored" 0xbeef tcb.Tcb.xstate

let test_tcb_recycle_preserves_cls () =
  let tcb = Tcb.create ~id:2 () in
  Cls.set tcb.Tcb.cls counter_slot 5;
  tcb.Tcb.rip <- 100;
  Tcb.recycle tcb;
  checki "rip reset" 0 tcb.Tcb.rip;
  checkb "state free" true (tcb.Tcb.state = Tcb.Free);
  checki "CLS survives recycling (it is the pthread's TLS)" 5 (Cls.get tcb.Tcb.cls counter_slot)

let test_tcb_recycle_rejects_frames () =
  let tcb = Tcb.create ~id:3 () in
  Stack.push_frame tcb.Tcb.stack (Tcb.snapshot tcb);
  Alcotest.check_raises "frames on stack" (Invalid_argument "Tcb.recycle: frames still on stack")
    (fun () -> Tcb.recycle tcb)

(* -- Receiver ------------------------------------------------------------------ *)

let test_receiver_basic () =
  let r = Receiver.create () in
  checkb "UIF set initially" true (Receiver.uif r);
  checkb "no pending" false (Receiver.pending r);
  checkb "nothing to recognize" false (Receiver.recognize r);
  Receiver.post r;
  checkb "pending" true (Receiver.pending r);
  checkb "recognized" true (Receiver.recognize r);
  checkb "pending cleared" false (Receiver.pending r);
  checkb "UIF cleared for handler" false (Receiver.uif r);
  Receiver.stui r;
  checkb "UIF restored" true (Receiver.uif r)

let test_receiver_clui_blocks () =
  let r = Receiver.create () in
  Receiver.clui r;
  Receiver.post r;
  checkb "pending but masked" false (Receiver.recognize r);
  checkb "still pending" true (Receiver.pending r);
  Receiver.stui r;
  checkb "recognized after stui" true (Receiver.recognize r)

let test_receiver_coalescing () =
  let r = Receiver.create () in
  Receiver.post r;
  Receiver.post r;
  Receiver.post r;
  checki "posted count" 3 (Receiver.posted_count r);
  checki "coalesced" 2 (Receiver.coalesced_count r);
  checkb "one recognition" true (Receiver.recognize r);
  Receiver.stui r;
  checkb "no second recognition" false (Receiver.recognize r);
  checki "recognized count" 1 (Receiver.recognized_count r)

(* -- Fabric ----------------------------------------------------------------- *)

let test_fabric_delivery () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let r = Receiver.create () in
  let idx = Fabric.register fabric r in
  Sim.Des.schedule_at des ~time:100L (fun _ -> Fabric.senduipi fabric idx);
  Sim.Des.run des;
  checkb "delivered" true (Receiver.pending r);
  checki "one send" 1 (Fabric.sends fabric);
  let clock = Sim.Des.clock des in
  checkb "latency under 1us" true
    (Sim.Clock.us_of_cycles clock (Int64.sub (Sim.Des.now des) 100L) < 1.0);
  checkb "latency positive" true (Int64.compare (Sim.Des.now des) 100L > 0)

let test_fabric_many_deliveries_sub_us () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let r = Receiver.create () in
  let idx = Fabric.register fabric r in
  for i = 1 to 1000 do
    Sim.Des.schedule_at des ~time:(Int64.of_int (i * 10_000)) (fun _ ->
        Fabric.senduipi fabric idx)
  done;
  Sim.Des.run des;
  let h = Fabric.delivery_histogram fabric in
  checki "all samples recorded" 1000 (Sim.Histogram.count h);
  let clock = Sim.Des.clock des in
  (* §6.1: "consistently lower than 1 us" *)
  checkb "max delivery < 1us" true
    (Sim.Clock.us_of_cycles clock (Sim.Histogram.max_value h) < 1.0)

let test_fabric_unknown_index () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  Alcotest.check_raises "unknown UITT index"
    (Invalid_argument "Fabric.receiver: unknown UITT index") (fun () ->
      Fabric.senduipi fabric 3)

let test_fabric_multiple_receivers () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let rs = Array.init 20 (fun _ -> Receiver.create ()) in
  let idxs = Array.map (Fabric.register fabric) rs in
  Sim.Des.schedule_at des ~time:0L (fun _ -> Fabric.senduipi fabric idxs.(7));
  Sim.Des.run des;
  Array.iteri
    (fun i r -> checkb (Printf.sprintf "receiver %d" i) (i = 7) (Receiver.pending r))
    rs

(* -- Fabric: latency + delivery models (fault-injection hooks) --------------- *)

let test_latency_model_clamps_negative () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let r = Receiver.create () in
  let idx = Fabric.register fabric r in
  Fabric.set_latency_model fabric (Some (fun ~flow:_ ~nominal:_ -> -500));
  Sim.Des.schedule_at des ~time:100L (fun _ -> Fabric.senduipi fabric idx);
  Sim.Des.run des;
  checkb "delivered" true (Receiver.pending r);
  (* a negative latency must clamp to 0: delivery at the send instant *)
  checki "clamped to zero latency" 0 (Int64.to_int (Int64.sub (Sim.Des.now des) 100L))

let test_latency_model_removal_restores_jitter () =
  let run_with reset =
    let des = Sim.Des.create () in
    let fabric = Fabric.create des ~costs:Costs.default in
    let r = Receiver.create () in
    let idx = Fabric.register fabric r in
    if reset then begin
      (* install a constant model, then remove it again *)
      Fabric.set_latency_model fabric (Some (fun ~flow:_ ~nominal:_ -> 1));
      Fabric.set_latency_model fabric None
    end;
    for i = 1 to 50 do
      Sim.Des.schedule_at des ~time:(Int64.of_int (i * 10_000)) (fun _ ->
          Fabric.senduipi fabric idx)
    done;
    Sim.Des.run des;
    let h = Fabric.delivery_histogram fabric in
    Sim.Histogram.min_value h, Sim.Histogram.max_value h
  in
  let dmin, dmax = run_with false and rmin, rmax = run_with true in
  checkb "default jitter spreads" true (Int64.compare dmin dmax < 0);
  checkb "same min after model removal" true (Int64.equal dmin rmin);
  checkb "same max after model removal" true (Int64.equal dmax rmax)

let test_delivery_model_drop () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let r = Receiver.create () in
  let idx = Fabric.register fabric r in
  Fabric.set_delivery_model fabric (Some (fun ~flow:_ ~latency:_ -> []));
  Sim.Des.schedule_at des ~time:0L (fun _ -> Fabric.senduipi fabric idx);
  Sim.Des.run des;
  checkb "nothing delivered" false (Receiver.pending r);
  checki "send still counted" 1 (Fabric.sends fabric);
  checki "loss counted" 1 (Fabric.lost fabric);
  Fabric.set_delivery_model fabric None;
  Sim.Des.schedule_at des ~time:1000L (fun _ -> Fabric.senduipi fabric idx);
  Sim.Des.run des;
  checkb "fault-free after removal" true (Receiver.pending r);
  checki "no further loss" 1 (Fabric.lost fabric)

let test_delivery_model_duplicate_is_idempotent () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let r = Receiver.create () in
  let idx = Fabric.register fabric r in
  Fabric.set_delivery_model fabric
    (Some (fun ~flow:_ ~latency -> [ latency; latency + 7 ]));
  Sim.Des.schedule_at des ~time:0L (fun _ -> Fabric.senduipi fabric idx);
  Sim.Des.run des;
  checki "one duplicate counted" 1 (Fabric.duplicated fabric);
  checki "both posts arrived" 2 (Receiver.posted_count r);
  (* the UPID pending bit coalesces: the duplicate is absorbed, exactly one
     recognition comes out — receivers are idempotent under duplication *)
  checki "duplicate coalesced" 1 (Receiver.coalesced_count r);
  checkb "one recognition" true (Receiver.recognize r);
  Receiver.stui r;
  checkb "no second recognition" false (Receiver.recognize r)

let test_delivery_model_sees_post_jitter_latency () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let r = Receiver.create () in
  let idx = Fabric.register fabric r in
  let seen = ref (-1) in
  Fabric.set_latency_model fabric (Some (fun ~flow:_ ~nominal:_ -> 123));
  Fabric.set_delivery_model fabric
    (Some
       (fun ~flow:_ ~latency ->
         seen := latency;
         [ latency ]));
  Sim.Des.schedule_at des ~time:0L (fun _ -> Fabric.senduipi fabric idx);
  Sim.Des.run des;
  checki "delivery model composes after latency model" 123 !seen

(* -- Hw_thread + Region ------------------------------------------------------ *)

let mk_hw ?(n_contexts = 2) () = Hw.create ~n_contexts ~id:0 ~costs:Costs.default ()

let test_hw_basics () =
  let hw = mk_hw () in
  checki "two contexts" 2 (Hw.n_contexts hw);
  checki "current is 0" 0 (Hw.current_index hw);
  checkb "cls consistent" true (Hw.cls_consistent hw);
  Hw.set_current hw 1;
  checki "current is 1" 1 (Hw.current_index hw);
  checkb "cls follows" true (Hw.cls_consistent hw);
  Alcotest.check_raises "needs 2 contexts"
    (Invalid_argument "Hw_thread.create: need at least 2 contexts") (fun () ->
      ignore (Hw.create ~n_contexts:1 ~id:1 ~costs:Costs.default ()))

let test_region_nesting () =
  let hw = mk_hw () in
  checkb "not in region" false (Region.in_region hw);
  Region.enter hw;
  Region.enter hw;
  checki "depth 2" 2 (Region.depth hw);
  Region.exit hw;
  checki "depth 1" 1 (Region.depth hw);
  Region.exit hw;
  checkb "fully exited" false (Region.in_region hw);
  Alcotest.check_raises "unbalanced exit"
    (Invalid_argument "Region.exit: not inside a non-preemptible region") (fun () ->
      Region.exit hw)

let test_region_is_context_local () =
  let hw = mk_hw () in
  Region.enter hw;
  Hw.set_current hw 1;
  checki "other context not in region" 0 (Region.depth hw);
  Hw.set_current hw 0;
  checki "original still in region" 1 (Region.depth hw);
  Region.exit hw

let test_region_with_region_exception_safe () =
  let hw = mk_hw () in
  (try Region.with_region hw (fun () -> failwith "boom") with Failure _ -> ());
  checkb "exited on exception" false (Region.in_region hw)

(* -- Switch: passive ------------------------------------------------------------ *)

let recognize_and_switch hw =
  let recv = Hw.receiver hw in
  Receiver.post recv;
  checkb "recognized" true (Receiver.recognize recv);
  Switch.passive_switch hw ~target:1

let test_passive_switch_happy_path () =
  let hw = mk_hw () in
  let ctx0 = Hw.context hw 0 and ctx1 = Hw.context hw 1 in
  ctx0.Tcb.state <- Tcb.Running;
  ctx0.Tcb.rip <- 55;
  ctx0.Tcb.gprs <- 0xaaaa;
  match recognize_and_switch hw with
  | Switch.Switched cycles ->
    checki "cost" (Costs.passive_switch_total Costs.default) cycles;
    checki "now in preemptive context" 1 (Hw.current_index hw);
    checkb "interrupted context paused" true (ctx0.Tcb.state = Tcb.Paused);
    checkb "target running" true (ctx1.Tcb.state = Tcb.Running);
    checki "frame saved on interrupted stack" 1 (Stack.frame_depth ctx0.Tcb.stack);
    checkb "CLS remapped" true (Hw.cls_consistent hw);
    checkb "UIF restored by uiret" true (Receiver.uif (Hw.receiver hw))
  | Switch.Rejected_region _ | Switch.Rejected_window _ -> Alcotest.fail "expected switch"

let test_passive_then_active_resume () =
  let hw = mk_hw () in
  let ctx0 = Hw.context hw 0 in
  ctx0.Tcb.state <- Tcb.Running;
  ctx0.Tcb.rip <- 55;
  ctx0.Tcb.gprs <- 0xaaaa;
  (match recognize_and_switch hw with
  | Switch.Switched _ -> ()
  | _ -> Alcotest.fail "switch");
  (Hw.context hw 1).Tcb.rip <- 3;
  let cycles = Switch.active_switch ~retire:true hw ~target:0 in
  checki "active cost" (Costs.active_switch_total Costs.default) cycles;
  checki "back to regular context" 0 (Hw.current_index hw);
  checki "rip restored at interruption point" 55 ctx0.Tcb.rip;
  checki "gprs restored" 0xaaaa ctx0.Tcb.gprs;
  checkb "resumed" true (ctx0.Tcb.state = Tcb.Running);
  checki "stack balanced" 0 (Stack.frame_depth ctx0.Tcb.stack);
  checkb "preemptive context recycled" true ((Hw.context hw 1).Tcb.state = Tcb.Free);
  checkb "cls consistent" true (Hw.cls_consistent hw)

let test_passive_rejected_in_region () =
  let hw = mk_hw () in
  Region.enter hw;
  (match recognize_and_switch hw with
  | Switch.Rejected_region cycles ->
    checkb "handler entry+exit charged" true (cycles > 0);
    checki "still in regular context" 0 (Hw.current_index hw);
    checki "stack untouched" 0 (Stack.frame_depth (Hw.context hw 0).Tcb.stack);
    checkb "UIF restored" true (Receiver.uif (Hw.receiver hw))
  | Switch.Switched _ | Switch.Rejected_window _ -> Alcotest.fail "expected region rejection");
  Region.exit hw

let test_passive_ignores_region_when_disabled () =
  let hw = mk_hw () in
  Region.enter hw;
  let recv = Hw.receiver hw in
  Receiver.post recv;
  ignore (Receiver.recognize recv);
  (match Switch.passive_switch ~honor_regions:false hw ~target:1 with
  | Switch.Switched _ -> checki "switched despite region" 1 (Hw.current_index hw)
  | Switch.Rejected_region _ | Switch.Rejected_window _ ->
    Alcotest.fail "ablation mode must switch");
  ignore (Switch.active_switch ~retire:true hw ~target:0);
  Region.exit hw

let test_passive_rejected_in_swap_window () =
  let hw = mk_hw () in
  Hw.set_swap_window hw true;
  (match recognize_and_switch hw with
  | Switch.Rejected_window cycles ->
    checkb "early uiret is cheap" true (cycles < Costs.passive_switch_total Costs.default);
    checki "no switch" 0 (Hw.current_index hw)
  | Switch.Switched _ | Switch.Rejected_region _ -> Alcotest.fail "expected window rejection");
  Hw.set_swap_window hw false

let test_switch_to_self_rejected () =
  let hw = mk_hw () in
  Alcotest.check_raises "passive to self"
    (Invalid_argument "Switch.passive_switch: target is the current context") (fun () ->
      ignore (Switch.passive_switch hw ~target:0));
  Alcotest.check_raises "active to self"
    (Invalid_argument "Switch.active_switch: target is the current context") (fun () ->
      ignore (Switch.active_switch hw ~target:0))

let test_active_switch_non_retiring_roundtrip () =
  let hw = mk_hw () in
  let ctx0 = Hw.context hw 0 and ctx1 = Hw.context hw 1 in
  ctx0.Tcb.state <- Tcb.Running;
  ctx0.Tcb.rip <- 10;
  ignore (Switch.active_switch hw ~target:1);
  checkb "ctx0 paused with frame" true
    (ctx0.Tcb.state = Tcb.Paused && Stack.frame_depth ctx0.Tcb.stack = 1);
  ctx1.Tcb.rip <- 77;
  ignore (Switch.active_switch hw ~target:0);
  checki "ctx0 rip back" 10 ctx0.Tcb.rip;
  checkb "ctx1 paused" true (ctx1.Tcb.state = Tcb.Paused);
  ignore (Switch.active_switch hw ~target:1);
  checki "ctx1 rip back" 77 ctx1.Tcb.rip

(* Random alternation of passive/active switches keeps the thread's
   invariants: the CLS mapping tracks the current context and exactly one
   context is Running. *)
let prop_switch_invariants =
  QCheck2.Test.make ~name:"switch sequences preserve thread invariants" ~count:100
    QCheck2.Gen.(list_size (int_range 1 60) (int_bound 2))
    (fun moves ->
      let hw = mk_hw () in
      (Hw.context hw 0).Tcb.state <- Tcb.Running;
      let recv = Hw.receiver hw in
      List.iter
        (fun m ->
          let cur = Hw.current_index hw in
          let other = 1 - cur in
          match m with
          | 0 ->
            if cur = 0 then begin
              Receiver.post recv;
              if Receiver.recognize recv then
                ignore (Switch.passive_switch hw ~target:other)
            end
          | 1 -> ignore (Switch.active_switch hw ~target:other)
          | _ -> if cur = 1 then ignore (Switch.active_switch ~retire:true hw ~target:0))
        moves;
      let running =
        List.length
          (List.filter (fun i -> (Hw.context hw i).Tcb.state = Tcb.Running) [ 0; 1 ])
      in
      Hw.cls_consistent hw && running = 1)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* A channel send inside an actor's step (a 2PC program on a worker) leaves
   at the step's clock, not at the activation's start. *)
let test_channel_send_at_step_clock () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let ch = Uintr.Channel.create des ~fabric ~name:"link" in
  let delivered_at = ref (-1L) in
  Uintr.Channel.set_on_deliver ch (fun () -> delivered_at := Sim.Des.now des);
  let actor = ref (-1) in
  actor :=
    Sim.Des.add_actor des (fun des ->
        Sim.Des.set_actor_clock des 5_000;
        Uintr.Channel.send ch ~bytes:0 ());
  Sim.Des.wake_actor des !actor ~time:100;
  Sim.Des.run des;
  (* base latency 1200 cycles, jitter at most 20 % *)
  checkb "sent at the step's clock" true (!delivered_at >= 5_960L)

(* The lookahead floor is the least senduipi latency under the built-in
   jitter, and nothing while a model may deliver sooner. *)
let test_fabric_lookahead_floor () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  checki "0.8 x (senduipi + delivery)" 800 (Fabric.lookahead_floor fabric);
  Fabric.set_latency_model fabric (Some (fun ~flow:_ ~nominal -> nominal));
  checki "no floor under a latency model" 0 (Fabric.lookahead_floor fabric);
  Fabric.set_latency_model fabric None;
  Fabric.set_delivery_model fabric (Some (fun ~flow:_ ~latency -> [ latency ]));
  checki "no floor under a delivery model" 0 (Fabric.lookahead_floor fabric)

(* Every path registered with the fabric lowers the floor to its least
   latency, and never raises it: a channel whose base latency sits below
   the senduipi floor brings it down to base - base/5, and no message on
   it arrives sooner. *)
let test_fabric_floor_paths () =
  let des = Sim.Des.create () in
  let fabric = Fabric.create des ~costs:Costs.default in
  let (_ : unit Uintr.Channel.t) = Uintr.Channel.create des ~fabric ~name:"default" in
  checki "a default channel (960) leaves the senduipi floor" 800 (Fabric.lookahead_floor fabric);
  let fast = Uintr.Channel.create ~base_latency:500 des ~fabric ~name:"fast" in
  checki "a 500-cycle channel" 400 (Fabric.lookahead_floor fabric);
  Fabric.register_path fabric ~least_latency:9_600;
  checki "a slower path leaves it" 400 (Fabric.lookahead_floor fabric);
  Fabric.register_path fabric ~least_latency:240;
  checki "a faster path lowers it" 240 (Fabric.lookahead_floor fabric);
  let earliest = ref max_int in
  Uintr.Channel.set_on_deliver fast (fun sent ->
      earliest := min !earliest (Sim.Des.now_int des - sent));
  for i = 0 to 999 do
    Sim.Des.schedule_at_int des ~time:(i * 100) (fun des ->
        Uintr.Channel.send fast ~bytes:(i mod 3) (Sim.Des.now_int des))
  done;
  Sim.Des.run des;
  checkb "no message beat the channel's least latency" true (!earliest >= 400);
  Fabric.set_channel_delivery_model fabric (Some (fun ~flow:_ ~latency -> [ latency ]));
  checki "no floor under a channel model" 0 (Fabric.lookahead_floor fabric)

let () =
  Alcotest.run "uintr"
    [
      ( "cls",
        [
          Alcotest.test_case "init and set" `Quick test_cls_init_and_set;
          Alcotest.test_case "areas isolated" `Quick test_cls_areas_isolated;
          Alcotest.test_case "init per area" `Quick test_cls_init_runs_per_area;
          Alcotest.test_case "reset" `Quick test_cls_reset;
          Alcotest.test_case "slot name" `Quick test_cls_slot_name;
        ] );
      ("costs", [ Alcotest.test_case "totals and calibration" `Quick test_costs ]);
      ( "stack",
        [
          Alcotest.test_case "push/pop with red zone" `Quick test_stack_push_pop;
          Alcotest.test_case "overflow" `Quick test_stack_overflow;
          Alcotest.test_case "scratch word" `Quick test_stack_scratch;
          Alcotest.test_case "too small" `Quick test_stack_too_small;
        ] );
      ( "tcb",
        [
          Alcotest.test_case "snapshot/restore" `Quick test_tcb_snapshot_restore;
          Alcotest.test_case "recycle preserves CLS" `Quick test_tcb_recycle_preserves_cls;
          Alcotest.test_case "recycle rejects frames" `Quick test_tcb_recycle_rejects_frames;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "post/recognize/UIF" `Quick test_receiver_basic;
          Alcotest.test_case "clui masks" `Quick test_receiver_clui_blocks;
          Alcotest.test_case "coalescing" `Quick test_receiver_coalescing;
        ] );
      ( "fabric",
        [
          Alcotest.test_case "delivery" `Quick test_fabric_delivery;
          Alcotest.test_case "1000 deliveries all sub-1us (§6.1)" `Quick
            test_fabric_many_deliveries_sub_us;
          Alcotest.test_case "unknown index" `Quick test_fabric_unknown_index;
          Alcotest.test_case "targeting" `Quick test_fabric_multiple_receivers;
          Alcotest.test_case "latency model clamps negative to 0" `Quick
            test_latency_model_clamps_negative;
          Alcotest.test_case "latency model removal restores default jitter" `Quick
            test_latency_model_removal_restores_jitter;
          Alcotest.test_case "delivery model: lost delivery" `Quick test_delivery_model_drop;
          Alcotest.test_case "delivery model: duplicate coalesced at receiver" `Quick
            test_delivery_model_duplicate_is_idempotent;
          Alcotest.test_case "delivery model sees post-jitter latency" `Quick
            test_delivery_model_sees_post_jitter_latency;
          Alcotest.test_case "channel send at the step's clock" `Quick
            test_channel_send_at_step_clock;
          Alcotest.test_case "lookahead floor" `Quick test_fabric_lookahead_floor;
          Alcotest.test_case "lookahead floor: channels and paths" `Quick test_fabric_floor_paths;
        ] );
      ( "hw_thread",
        [
          Alcotest.test_case "basics" `Quick test_hw_basics;
          Alcotest.test_case "region nesting" `Quick test_region_nesting;
          Alcotest.test_case "region is context-local" `Quick test_region_is_context_local;
          Alcotest.test_case "with_region exception safety" `Quick
            test_region_with_region_exception_safe;
        ] );
      ( "switch",
        [
          Alcotest.test_case "passive happy path" `Quick test_passive_switch_happy_path;
          Alcotest.test_case "passive then active resume" `Quick test_passive_then_active_resume;
          Alcotest.test_case "rejected in non-preemptible region" `Quick
            test_passive_rejected_in_region;
          Alcotest.test_case "region ignored in ablation mode" `Quick
            test_passive_ignores_region_when_disabled;
          Alcotest.test_case "rejected in swap window (Alg 1 lines 2-6)" `Quick
            test_passive_rejected_in_swap_window;
          Alcotest.test_case "switch to self rejected" `Quick test_switch_to_self_rejected;
          Alcotest.test_case "active non-retiring roundtrip" `Quick
            test_active_switch_non_retiring_roundtrip;
        ]
        @ qsuite [ prop_switch_invariants ] );
    ]
