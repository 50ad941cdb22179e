module Sc = Tpch_schema
module Table = Storage.Table
module Tuple = Storage.Tuple
module Version = Storage.Version
module Engine = Storage.Engine
open Storage.Value

type t = {
  cfg : Sc.config;
  eng : Engine.t;
  region : Table.t;
  nation : Table.t;
  supplier : Table.t;
  part : Table.t;
  partsupp : Table.t;
  region_idx : Idx.IT.t;
  nation_idx : Idx.IT.t;
  supplier_idx : Idx.IT.t;
  part_idx : Idx.IT.t;
  partsupp_idx : Idx.IT.t;
}

let create eng cfg =
  Sc.validate cfg;
  {
    cfg;
    eng;
    region = Engine.create_table eng "region";
    nation = Engine.create_table eng "nation";
    supplier = Engine.create_table eng "supplier";
    part = Engine.create_table eng "part";
    partsupp = Engine.create_table eng "partsupp";
    region_idx = Idx.IT.create ();
    nation_idx = Idx.IT.create ();
    supplier_idx = Idx.IT.create ();
    part_idx = Idx.IT.create ();
    partsupp_idx = Idx.IT.create ();
  }

let load_row table fields =
  let tuple = Table.alloc table in
  Tuple.install tuple (Version.committed (Some (of_fields fields)));
  tuple.Tuple.oid

let load t rng =
  let cfg = t.cfg in
  for r = 1 to cfg.Sc.regions do
    let oid = load_row t.region [| Int r; Str (Printf.sprintf "REGION%02d" r) |] in
    ignore (Idx.IT.insert t.region_idx r oid)
  done;
  for n = 1 to cfg.Sc.nations do
    let r = ((n - 1) mod cfg.Sc.regions) + 1 in
    let oid = load_row t.nation [| Int n; Int r; Str (Printf.sprintf "NATION%03d" n) |] in
    ignore (Idx.IT.insert t.nation_idx n oid)
  done;
  for s = 1 to cfg.Sc.suppliers do
    let n = Sim.Rng.int_in rng 1 cfg.Sc.nations in
    let oid =
      load_row t.supplier
        [|
          Int s;
          Int n;
          Str (Printf.sprintf "Supplier%05d" s);
          Float (Sim.Rng.float rng 11_000.0 -. 1000.0);
          Str (Sim.Rng.alpha_string rng ~min_len:20 ~max_len:40);
        |]
    in
    ignore (Idx.IT.insert t.supplier_idx s oid)
  done;
  for p = 1 to cfg.Sc.parts do
    let oid =
      load_row t.part
        [|
          Int p;
          Str (Printf.sprintf "MFGR#%d" (Sim.Rng.int_in rng 1 5));
          Int (Sim.Rng.int rng cfg.Sc.types);
          Int (Sim.Rng.int_in rng 1 cfg.Sc.sizes);
        |]
    in
    ignore (Idx.IT.insert t.part_idx p oid);
    (* ps_per_part distinct suppliers for this part *)
    let chosen = Hashtbl.create 8 in
    let placed = ref 0 in
    while !placed < cfg.Sc.ps_per_part do
      let s = Sim.Rng.int_in rng 1 cfg.Sc.suppliers in
      if not (Hashtbl.mem chosen s) then begin
        Hashtbl.replace chosen s ();
        incr placed;
        let psoid =
          load_row t.partsupp
            [| Int p; Int s; Float (Sim.Rng.float rng 1000.0); Int (Sim.Rng.int_in rng 1 9999) |]
        in
        ignore (Idx.IT.insert t.partsupp_idx (Sc.partsupp_key ~p ~s) psoid)
      end
    done
  done

let row_counts t =
  List.map
    (fun table -> Table.name table, Table.size table)
    [ t.region; t.nation; t.supplier; t.part; t.partsupp ]
