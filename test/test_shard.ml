(* Shard subsystem tests: router placement edges, the channel's
   same-instant delivery order, and the atomicity oracle driven end-to-end
   (clean run, crash runs, the armed early-vote bug, and same-seed
   determinism). *)

module Config = Preemptdb.Config
module Router = Shard.Router

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* -- Router ----------------------------------------------------------------- *)

let test_router_single_shard () =
  let r = Router.create ~shards:1 ~warehouses:7 in
  for w = 1 to 7 do
    checki "all on shard 0" 0 (Router.shard_of r w)
  done;
  checki "owns the full range" 7 (Array.length (Router.warehouses_of r 0))

let test_router_more_shards_than_warehouses () =
  let r = Router.create ~shards:8 ~warehouses:3 in
  (* The mapping stays total and each warehouse lands on exactly one
     shard; some shards own nothing. *)
  let owned = Array.make 8 0 in
  for w = 1 to 3 do
    let s = Router.shard_of r w in
    checkb "in range" true (s >= 0 && s < 8);
    owned.(s) <- owned.(s) + 1;
    checkb "owns agrees" true (Router.owns r s w)
  done;
  checki "every warehouse owned once" 3 (Array.fold_left ( + ) 0 owned);
  let empty = ref 0 in
  for s = 0 to 7 do
    let ws = Router.warehouses_of r s in
    checki "warehouses_of matches shard_of" owned.(s) (Array.length ws);
    if Array.length ws = 0 then incr empty
  done;
  checki "five shards own nothing" 5 !empty

let test_router_one_to_one () =
  let r = Router.create ~shards:6 ~warehouses:6 in
  for w = 1 to 6 do
    checki "ratio 1.0 is the identity (1-based to 0-based)" (w - 1)
      (Router.shard_of r w)
  done

let test_router_balanced_blocks () =
  let r = Router.create ~shards:4 ~warehouses:10 in
  let sizes = Array.init 4 (fun s -> Array.length (Router.warehouses_of r s)) in
  checki "partition covers everything" 10 (Array.fold_left ( + ) 0 sizes);
  let mn = Array.fold_left min max_int sizes and mx = Array.fold_left max 0 sizes in
  checkb "block sizes differ by at most one" true (mx - mn <= 1);
  (* dense ascending ranges: successor of a shard's last warehouse opens
     the next non-empty shard *)
  Array.iteri
    (fun s ws ->
      Array.iteri
        (fun i w ->
          checkb "dense" true (i = 0 || w = ws.(i - 1) + 1);
          checki "round-trips through shard_of" s (Router.shard_of r w))
        ws)
    (Array.init 4 (Router.warehouses_of r))

(* -- Channel same-instant tie-break ------------------------------------------- *)

(* Regression: two messages landing at the same virtual cycle must deliver
   in send order (per-channel sequence), not in whatever order the DES
   queue happens to surface same-time events.  base_latency 1 with
   per_byte 0 makes the jitter span zero, so every send from one instant
   collapses onto a single delivery cycle. *)
let test_channel_same_instant_order () =
  let des = Sim.Des.create () in
  let fabric = Uintr.Fabric.create des ~costs:Uintr.Costs.default in
  let ch =
    Uintr.Channel.create des ~fabric ~name:"tie" ~base_latency:1 ~per_byte:0
  in
  let got = ref [] in
  Uintr.Channel.set_on_deliver ch (fun i -> got := i :: !got);
  Sim.Des.schedule_at des ~time:100L (fun _ ->
      for i = 0 to 49 do
        Uintr.Channel.send ch ~bytes:0 i
      done);
  Sim.Des.run des;
  checki "all delivered" 50 (Uintr.Channel.delivered ch);
  Alcotest.(check (list int))
    "same-instant copies deliver in send order"
    (List.init 50 (fun i -> i))
    (List.rev !got)

(* -- Atomicity oracle end-to-end ---------------------------------------------- *)

let shard_cfg ?(shards = 2) () =
  Config.with_shard
    ~shard:{ Config.default_shard with Config.sh_shards = shards }
    (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())

let test_atomic_clean () =
  let o =
    Check.Atomic.run ~cfg:(shard_cfg ()) ~arrival_interval_us:80.
      ~horizon_sec:0.004 ()
  in
  let r = o.Check.Atomic.at_resolution in
  checki "no violations" 0 (List.length r.Check.Atomic.rs_violations);
  checki "nothing torn without a crash" 0 r.Check.Atomic.rs_torn;
  checkb "2PC actually ran" true (r.Check.Atomic.rs_decisions > 0)

let test_atomic_crash_roles () =
  List.iter
    (fun crash_sid ->
      let o =
        Check.Atomic.run ~cfg:(shard_cfg ()) ~crash_sid ~crash_at_us:1500.
          ~crash_seed:7L ~arrival_interval_us:80. ~horizon_sec:0.004 ()
      in
      let r = o.Check.Atomic.at_resolution in
      checki
        (Printf.sprintf "crashing shard %d keeps atomicity" crash_sid)
        0
        (List.length r.Check.Atomic.rs_violations);
      checkb "resolution converged" true
        (r.Check.Atomic.rs_committed + r.Check.Atomic.rs_aborted
         = r.Check.Atomic.rs_in_doubt))
    [ 0; 1 ]

let test_atomic_early_vote_caught () =
  (* The armed bug (vote before the prepare record is durable) must
     produce a decision⟹prepared-everywhere violation for some crash
     instant; sweep a few like the CLI self-test does. *)
  let cfg =
    Config.with_shard
      ~shard:{ Config.default_shard with Config.sh_shards = 2; sh_cross_pct = 100 }
      (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())
  in
  let cfg =
    { cfg with Config.durability = Some { (Option.get cfg.Config.durability) with Config.du_group_interval_us = 40. } }
  in
  let caught = ref false in
  for i = 0 to 7 do
    if not !caught then
      let o =
        Check.Atomic.run ~cfg ~bug_early_vote:true ~crash_sid:1
          ~crash_at_us:(700. +. (500. *. float_of_int i))
          ~crash_seed:(Int64.of_int (31 + i))
          ~arrival_interval_us:60. ~horizon_sec:0.005 ()
      in
      if o.Check.Atomic.at_resolution.Check.Atomic.rs_violations <> [] then
        caught := true
  done;
  checkb "oracle catches the armed early-vote bug" true !caught

let test_atomic_deterministic () =
  let run () =
    let o =
      Check.Atomic.run ~cfg:(shard_cfg ()) ~crash_sid:1 ~crash_at_us:1500.
        ~crash_seed:7L ~arrival_interval_us:80. ~horizon_sec:0.004 ()
    in
    let r = o.Check.Atomic.at_resolution in
    let sums =
      Array.fold_left
        (fun (c, a) s ->
          (c + s.Shard.Cluster.ss_committed, a + s.Shard.Cluster.ss_aborted))
        (0, 0) o.Check.Atomic.at_stats
    in
    ( r.Check.Atomic.rs_decisions,
      r.Check.Atomic.rs_in_doubt,
      r.Check.Atomic.rs_committed,
      r.Check.Atomic.rs_aborted,
      sums )
  in
  let a = run () and b = run () in
  checkb "same seed, same run" true (a = b)

(* -- Unsupported compositions --------------------------------------------------- *)

(* A shard is a node assembly without a standby, reclaimer or
   checkpointer: configs arming one are refused up front instead of being
   silently ignored. *)
let test_cluster_rejects_unsupported () =
  let rejects what cfg =
    checkb (what ^ " rejected") true
      (match Shard.Cluster.create ~cfg () with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let cfg = shard_cfg () in
  rejects "replication" (Config.with_replication cfg);
  rejects "reclamation" (Config.with_reclaim cfg);
  rejects "checkpointing"
    {
      cfg with
      Config.durability =
        Some { Config.default_durability with Config.du_ckpt_interval_us = 500. };
    };
  rejects "unsharded config" (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ())

(* -- Golden cluster schedules ---------------------------------------------------- *)

(* A 2-shard and a 4-shard cluster pinned to the exact schedule they
   produce: DES events processed, commits per class summed over the
   shards, and an FNV-1a hash of the (time, seq) event stream folded in
   through [Cluster.des] and [Sim.Des.set_probe].  Any change to how a
   shard is assembled, started or run that moves one event breaks the
   hash.  [on] pins the events and hash with lookahead, [off] in
   lock-step; the commits and the virtual-schedule digest are the same
   either way. *)

let check_golden_cluster ~lookahead ~shards ~seed ~horizon_sec ~on ~off ~commits ~digest =
  let cfg =
    Config.with_shard
      ~shard:{ Config.default_shard with Config.sh_shards = shards; sh_cross_pct = 10 }
      { (Config.default ~policy:(Config.Preempt 1.0) ~n_workers:2 ()) with Config.seed }
  in
  let cl = Shard.Cluster.create ~cfg ~arrival_interval_us:18. () in
  Sim.Des.set_lookahead (Shard.Cluster.des cl) lookahead;
  let h = ref 0x811c9dc5 in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  Sim.Des.set_probe (Shard.Cluster.des cl)
    (Some
       (fun ~time ~seq ->
         mix (Int64.to_int time);
         mix seq));
  Shard.Cluster.run cl ~horizon_sec;
  let per_class = Hashtbl.create 8 in
  for sid = 0 to shards - 1 do
    List.iter
      (fun (label, cs) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt per_class label) in
        Hashtbl.replace per_class label (prev + cs.Preemptdb.Metrics.committed))
      (Preemptdb.Metrics.classes (Shard.Cluster.metrics cl ~sid))
  done;
  let got =
    Hashtbl.fold (fun l c acc -> Printf.sprintf "%s=%d" l c :: acc) per_class []
    |> List.sort compare |> String.concat " "
  in
  let events, hash = if lookahead then on else off in
  checki "DES events" events (Shard.Cluster.events_processed cl);
  Alcotest.(check string) "commits per class" commits got;
  Alcotest.(check string) "(time, seq) stream hash" hash (Printf.sprintf "%x" !h);
  Alcotest.(check string) "virtual-schedule digest" digest (Shard.Cluster.schedule_digest cl)

let golden_two_shards ~lookahead =
  check_golden_cluster ~lookahead ~shards:2 ~seed:42L ~horizon_sec:0.005
    ~on:(17550, "238729883ca8c7e8") ~off:(25189, "1af9712668e5487f")
    ~commits:"NewOrder=236 NewOrderX=34 Payment=258 PaymentX=24 XPart=58"
    ~digest:"695edb647c33c0d0"

let golden_four_shards ~lookahead =
  check_golden_cluster ~lookahead ~shards:4 ~seed:7L ~horizon_sec:0.01
    ~on:(99676, "44d52bb616a9c78b") ~off:(143812, "7c31ab2dd7bf3c54")
    ~commits:"NewOrder=986 NewOrderX=132 Payment=1000 PaymentX=92 XPart=425"
    ~digest:"3f58edd8dc19507d"

let () =
  Alcotest.run "shard"
    [
      ( "router",
        [
          Alcotest.test_case "single shard" `Quick test_router_single_shard;
          Alcotest.test_case "more shards than warehouses" `Quick
            test_router_more_shards_than_warehouses;
          Alcotest.test_case "one warehouse per shard" `Quick test_router_one_to_one;
          Alcotest.test_case "balanced dense blocks" `Quick test_router_balanced_blocks;
        ] );
      ( "channel",
        [
          Alcotest.test_case "same-instant delivery order" `Quick
            test_channel_same_instant_order;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "clean run" `Quick test_atomic_clean;
          Alcotest.test_case "coordinator and participant crashes" `Quick
            test_atomic_crash_roles;
          Alcotest.test_case "early-vote self-test caught" `Quick
            test_atomic_early_vote_caught;
          Alcotest.test_case "deterministic" `Quick test_atomic_deterministic;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "rejects unsupported compositions" `Quick
            test_cluster_rejects_unsupported;
        ] );
      ( "golden",
        [
          Alcotest.test_case "2 shards" `Quick (fun () -> golden_two_shards ~lookahead:true);
          Alcotest.test_case "4 shards, 10 ms" `Quick (fun () ->
              golden_four_shards ~lookahead:true);
        ] );
      ( "lookahead",
        [
          Alcotest.test_case "off: 2 shards" `Quick (fun () -> golden_two_shards ~lookahead:false);
          Alcotest.test_case "off: 4 shards, 10 ms" `Quick (fun () ->
              golden_four_shards ~lookahead:false);
        ] );
    ]
