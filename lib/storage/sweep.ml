type t = {
  eng : Engine.t;
  chunk_tuples : int;
  mutable table_idx : int;
  mutable next_oid : int;
  mutable passes_ : int;
}

let create ?(chunk_tuples = 256) eng =
  if chunk_tuples < 1 then invalid_arg "Sweep.create: need chunk_tuples >= 1";
  { eng; chunk_tuples; table_idx = 0; next_oid = 0; passes_ = 0 }

let passes t = t.passes_

let claim ?(table_done = ignore) ?(pass_done = ignore) t =
  let tables = Array.of_list (Engine.tables t.eng) in
  let n = Array.length tables in
  (* Skip tables already consumed (or empty) this pass; more than [n] hops
     means a full lap found nothing to claim. *)
  let rec settle hops =
    if hops > n then None
    else begin
      let table = tables.(t.table_idx) in
      if t.next_oid >= Table.size table then begin
        table_done table;
        t.table_idx <- t.table_idx + 1;
        t.next_oid <- 0;
        if t.table_idx >= n then begin
          t.table_idx <- 0;
          t.passes_ <- t.passes_ + 1;
          pass_done ()
        end;
        settle (hops + 1)
      end
      else begin
        let first = t.next_oid in
        let count = min t.chunk_tuples (Table.size table - first) in
        t.next_oid <- first + count;
        Some (table, first, count)
      end
    end
  in
  if n = 0 then None else settle 0
