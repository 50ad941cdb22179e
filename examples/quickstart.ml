(* Quickstart: the storage engine and transaction programs, no scheduler.

   Creates a bank-accounts table, runs a few transactions through the
   resumable-program layer (the same layer the scheduler preempts), and
   shows snapshot isolation in action.

     dune exec examples/quickstart.exe *)

module P = Workload.Program
module Engine = Storage.Engine
module Value = Storage.Value
module Tuple = Storage.Tuple

(* Drive a program to completion, as a scheduler would — one micro-op at a
   time.  Each [P.Pending (op, k)] is a point where PreemptDB could switch
   to a high-priority transaction. *)
let drive name prog env =
  let ops = ref 0 in
  let rec go = function
    | P.Finished outcome -> outcome, !ops
    | P.Pending (_, k) ->
      incr ops;
      go (P.resume k)
  in
  let outcome, ops = go (P.start prog env) in
  (match outcome with
  | P.Committed ts -> Format.printf "%-18s committed at ts=%Ld after %d micro-ops@." name ts ops
  | P.Aborted reason ->
    Format.printf "%-18s aborted (%s) after %d micro-ops@." name
      (Storage.Err.abort_reason_to_string reason)
      ops);
  outcome

let () =
  let eng = Engine.create () in
  let accounts = Engine.create_table eng "accounts" in
  let env =
    {
      P.eng;
      worker = 0;
      ctx = 0;
      cls = Uintr.Cls.create_area ();
      rng = Sim.Rng.create 42L;
    }
  in

  (* Each transaction class declares the tables it writes; a write outside
     the declaration fails loudly. *)
  let writes = Storage.Txn.declare ~tables:[ accounts ] () in

  (* 1. Create two accounts. *)
  let oids = ref [] in
  let setup env =
    P.run_txn ~writes env (fun txn ->
        let a = P.insert env txn accounts (Value.of_fields [| Value.Str "alice"; Value.Int 100 |]) in
        let b = P.insert env txn accounts (Value.of_fields [| Value.Str "bob"; Value.Int 50 |]) in
        oids := [ a.Tuple.oid, "alice"; b.Tuple.oid, "bob" ])
  in
  ignore (drive "setup" setup env);
  let alice = fst (List.nth !oids 0) and bob = fst (List.nth !oids 1) in

  (* 2. Transfer 30 from alice to bob, transactionally. *)
  let transfer env =
    P.run_txn ~writes env (fun txn ->
        let read oid =
          match P.read env txn accounts ~oid with
          | Some row -> row
          | None -> failwith "account vanished"
        in
        let a = read alice and b = read bob in
        if Value.int_exn a 1 < 30 then raise (P.Txn_failed Storage.Err.User_abort);
        P.update env txn accounts ~oid:alice (Value.add_int a 1 (-30));
        P.update env txn accounts ~oid:bob (Value.add_int b 1 30))
  in
  ignore (drive "transfer" transfer env);

  (* 3. Show the committed state. *)
  let audit env =
    P.run_txn ~writes:P.read_only env (fun txn ->
        List.iter
          (fun (oid, name) ->
            match P.read env txn accounts ~oid with
            | Some row -> Format.printf "  %-6s balance = %d@." name (Value.int_exn row 1)
            | None -> ())
          !oids)
  in
  ignore (drive "audit" audit env);

  (* 4. Snapshot isolation: a long reader keeps its snapshot even while a
     writer commits underneath it. *)
  let snapshot_demo env =
    P.run_txn ~writes:P.read_only env (fun txn ->
        let before = Value.int_exn (Option.get (P.read env txn accounts ~oid:alice)) 1 in
        (* a concurrent writer (a second transaction on another worker) *)
        let writer = Engine.begin_txn eng ~worker:1 ~ctx:0 in
        (match
            Engine.update eng writer accounts ~oid:alice (Value.of_fields [| Value.Str "alice"; Value.Int 0 |])
          with
        | Ok () -> ()
        | Error _ -> failwith "unexpected conflict");
        (match Engine.commit eng writer with Ok _ -> () | Error _ -> failwith "commit failed");
        let after = Value.int_exn (Option.get (P.read env txn accounts ~oid:alice)) 1 in
        Format.printf "  snapshot read before writer committed: %d@." before;
        Format.printf "  snapshot read after  writer committed: %d (unchanged!)@." after)
  in
  ignore (drive "snapshot-demo" snapshot_demo env);

  let st = Engine.stats eng in
  Format.printf "engine totals: %d commits, %d reads, %d updates, %d inserts@."
    st.Engine.commits st.Engine.reads st.Engine.updates st.Engine.inserts
