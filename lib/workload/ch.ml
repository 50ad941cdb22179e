module Sc = Tpcc_schema
module P = Program
module Value = Storage.Value

let block_rows = 256

type kind = Q1 | Q4 | Q6

let kind_to_string = function Q1 -> "CH-Q1" | Q4 -> "CH-Q4" | Q6 -> "CH-Q6"

let random_kind rng =
  match Sim.Rng.int rng 3 with 0 -> Q1 | 1 -> Q4 | _ -> Q6

(* Full order-line scan with per-block yield hints; [f] sees each visible
   row. *)
let scan_order_lines (db : Tpcc_db.t) env txn f =
  let rows = ref 0 in
  Idx.scan_int db.Tpcc_db.order_line_idx ~lo:0 ~hi:max_int (fun _ oid ->
      (match P.read env txn db.Tpcc_db.order_line ~oid with
      | Some row -> f row
      | None -> () (* inserted after our snapshot *));
      incr rows;
      if !rows mod block_rows = 0 then P.yield_hint ();
      true)

type q1_row = {
  ol_number : int;
  sum_qty : int;
  sum_amount : float;
  count_lines : int;
}

let q1_collect (db : Tpcc_db.t) collect env =
  P.run_txn ~writes:P.read_only env (fun txn ->
      let groups = Hashtbl.create 16 in
      scan_order_lines db env txn (fun row ->
          if Value.int_exn row Sc.OL.delivery_d >= 0 then begin
            let n = Value.int_exn row Sc.OL.number in
            let qty, amount, count =
              Option.value ~default:(0, 0., 0) (Hashtbl.find_opt groups n)
            in
            Hashtbl.replace groups n
              ( qty + Value.int_exn row Sc.OL.quantity,
                amount +. Value.float_exn row Sc.OL.amount,
                count + 1 )
          end);
      let rows =
        Hashtbl.fold
          (fun ol_number (sum_qty, sum_amount, count_lines) acc ->
            { ol_number; sum_qty; sum_amount; count_lines } :: acc)
          groups []
      in
      P.compute (100 + (List.length rows * 40));
      collect (List.sort (fun a b -> compare a.ol_number b.ol_number) rows))

let q1 db = q1_collect db (fun _ -> ())

let q6_collect (db : Tpcc_db.t) collect env =
  P.run_txn ~writes:P.read_only env (fun txn ->
      let revenue = ref 0. in
      scan_order_lines db env txn (fun row ->
          let qty = Value.int_exn row Sc.OL.quantity in
          if Value.int_exn row Sc.OL.delivery_d >= 0 && qty >= 1 && qty <= 10 then
            revenue := !revenue +. Value.float_exn row Sc.OL.amount);
      P.compute 100;
      collect !revenue)

let q6 db = q6_collect db (fun _ -> ())

(* Orders in a window of recent ids, counted when at least one of their
   lines is undelivered (the "late" semi-join). *)
let q4 (db : Tpcc_db.t) env =
  let cfg = db.Tpcc_db.cfg in
  let rng = env.P.rng in
  let w = Sim.Rng.int_in rng 1 cfg.Sc.warehouses in
  P.run_txn ~writes:P.read_only env (fun txn ->
      let rows = ref 0 in
      let late = ref 0 and total = ref 0 in
      for d = 1 to cfg.Sc.districts do
        let lo, hi = Sc.new_order_bounds ~w ~d in
        ignore (lo, hi);
        (* scan this district's full order range *)
        let olo = Sc.order_key ~w ~d ~o:0 in
        let ohi = Sc.order_key ~w ~d ~o:Sc.max_order in
        Idx.scan_int db.Tpcc_db.orders_idx ~lo:olo ~hi:ohi (fun _ ooid ->
            (match P.read env txn db.Tpcc_db.orders ~oid:ooid with
            | None -> ()
            | Some orow ->
              incr total;
              let o = Value.int_exn orow Sc.O.id in
              let llo, lhi = Sc.order_line_bounds ~w ~d ~o in
              let has_late = ref false in
              Idx.scan_int db.Tpcc_db.order_line_idx ~lo:llo ~hi:lhi (fun _ oloid ->
                  (match P.read env txn db.Tpcc_db.order_line ~oid:oloid with
                  | Some olrow ->
                    if Value.int_exn olrow Sc.OL.delivery_d < 0 then has_late := true
                  | None -> ());
                  not !has_late);
              if !has_late then incr late);
            incr rows;
            if !rows mod 64 = 0 then P.yield_hint ();
            true)
      done;
      P.compute (200 + !total)
      (* result: (!late, !total) — consumed only for its cycles here *))

let program db kind =
  match kind with Q1 -> q1 db | Q4 -> q4 db | Q6 -> q6 db
