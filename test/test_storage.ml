(* Tests for the MVCC storage engine: values, version chains, latches,
   B+tree, transactions, isolation levels, the staged commit protocol and
   the §4.4 same-thread latch-deadlock scenario. *)

module Value = Storage.Value
module Timestamp = Storage.Timestamp
module Version = Storage.Version
module Tuple = Storage.Tuple
module Table = Storage.Table
module Btree = Storage.Btree
module Txn = Storage.Txn
module Engine = Storage.Engine
module Err = Storage.Err
module IT = Btree.Int_tree

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* -- Value ------------------------------------------------------------------- *)

let test_value_accessors () =
  let row = Value.of_fields [| Value.Int 5; Value.Float 1.5; Value.Str "x" |] in
  checki "int" 5 (Value.int_exn row 0);
  Alcotest.(check (float 0.)) "float" 1.5 (Value.float_exn row 1);
  Alcotest.(check string) "str" "x" (Value.str_exn row 2);
  checkb "type error raises" true
    (match Value.int_exn row 1 with _ -> false | exception Invalid_argument _ -> true);
  checkb "bounds error raises" true
    (match Value.int_exn row 9 with _ -> false | exception Invalid_argument _ -> true)

let test_value_functional_update () =
  let row = Value.of_fields [| Value.Int 5; Value.Float 1.0 |] in
  let row' = Value.add_int row 0 3 in
  checki "original untouched" 5 (Value.int_exn row 0);
  checki "updated" 8 (Value.int_exn row' 0);
  let row'' = Value.add_float row' 1 0.5 in
  Alcotest.(check (float 1e-9)) "float add" 1.5 (Value.float_exn row'' 1);
  checkb "equal" true (Value.equal row row);
  checkb "not equal" false (Value.equal row row');
  checkb "size positive" true (Value.size_bytes row > 0)

(* Every kind on one row whose first field is a [Float]: a row built by
   [Array.init] or a literal over its words would be a flat float array. *)
let flat_fields =
  [|
    Value.Float nan;
    Value.Int min_int;
    Value.Int max_int;
    Value.Int (-7);
    Value.Float (-0.);
    Value.Float infinity;
    Value.Str "";
    Value.Str "abc";
  |]

let same_field a b =
  match a, b with
  | Value.Int x, Value.Int y -> x = y
  | Value.Float x, Value.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Str x, Value.Str y -> String.equal x y
  | _ -> false

let check_fields what fields row =
  checki (what ^ ": length") (Array.length fields) (Value.length row);
  Array.iteri
    (fun i f -> checkb (Printf.sprintf "%s: field %d" what i) true (same_field f (Value.get row i)))
    fields

let test_value_flat_round_trip () =
  let row = Value.of_fields flat_fields in
  check_fields "row" flat_fields row;
  checkb "not a flat float array" true (Obj.tag (Obj.repr row) <> Obj.double_array_tag);
  checki "min_int" min_int (Value.int_exn row 1);
  checki "max_int" max_int (Value.int_exn row 2);
  checki "negative" (-7) (Value.int_exn row 3);
  checkb "nan" true (Float.is_nan (Value.float_exn row 0));
  checkb "-0." true (Int64.equal (Int64.bits_of_float (-0.)) (Int64.bits_of_float (Value.float_exn row 4)));
  Alcotest.(check (float 0.)) "infinity" infinity (Value.float_exn row 5);
  Alcotest.(check string) "empty string" "" (Value.str_exn row 6);
  Alcotest.(check string) "string" "abc" (Value.str_exn row 7);
  let set = Value.set row 0 (Value.Str "was a float") in
  let bumped = Value.add_int row 1 1 in
  let shifted = Value.add_float row 4 1.5 in
  check_fields "source after updates" flat_fields row;
  Alcotest.(check string) "set changes kind" "was a float" (Value.str_exn set 0);
  checki "add_int" (min_int + 1) (Value.int_exn bumped 1);
  Alcotest.(check (float 0.)) "add_float" 1.5 (Value.float_exn shifted 4);
  Array.iteri
    (fun i f -> if i <> 1 then checkb "add_int keeps the rest" true (same_field f (Value.get bumped i)))
    flat_fields;
  let raises msg f = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> ignore (f ())) in
  raises "Value.int_exn: field 0 is Float" (fun () -> Value.int_exn row 0);
  raises "Value.float_exn: field 1 is Int" (fun () -> Value.float_exn row 1);
  raises "Value.str_exn: field 5 is Float" (fun () -> Value.str_exn row 5);
  raises "Value.int_exn: field 7 is Str" (fun () -> Value.int_exn row 7);
  raises "Value.float_exn: field 6 is Str" (fun () -> Value.float_exn row 6);
  raises "Value.float_exn: field 2 is Int" (fun () -> Value.add_float row 2 1.0);
  raises "Value.int_exn: field 8 out of bounds (row has 8)" (fun () -> Value.int_exn row 8);
  raises "Value.get: field -1 out of bounds (row has 8)" (fun () -> Value.get row (-1));
  raises "Value.set: field 8 out of bounds (row has 8)" (fun () ->
      Value.set row 8 (Value.Int 0))

let test_value_row_footprint () =
  let n = Sys.opaque_identity 4 in
  let ints = Value.of_fields (Array.init n (fun i -> Value.Int (1000 + i))) in
  checki "four ints: header + 4 words" 5 (Obj.reachable_words (Obj.repr ints));
  let mixed =
    Value.of_fields [| Value.Int (Sys.opaque_identity 7); Value.Float (Sys.opaque_identity 2.5) |]
  in
  checki "[| Int; Float |]: header + 2 words + one boxed double" 5
    (Obj.reachable_words (Obj.repr mixed))

(* [size_bytes] and [equal] over the boxed-field rows they replaced, kept as
   the reference: log-record sizes, and so device time, must not move. *)
module Boxed_value = struct
  let field_equal a b =
    match a, b with
    | Value.Int x, Value.Int y -> x = y
    | Value.Float x, Value.Float y -> Float.equal x y
    | Value.Str x, Value.Str y -> String.equal x y
    | (Value.Int _ | Value.Float _ | Value.Str _), _ -> false

  let equal a b =
    Array.length a = Array.length b
    && (let ok = ref true in
        Array.iteri (fun i f -> if not (field_equal f b.(i)) then ok := false) a;
        !ok)

  let size_bytes row =
    Array.fold_left
      (fun acc -> function
        | Value.Int _ | Value.Float _ -> acc + 8
        | Value.Str s -> acc + 8 + String.length s)
      8 row
end

let gen_field =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> Value.Float f) (oneof [ float; oneofl [ nan; -0.; 0.; infinity ] ]);
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_bound 6));
      ])

(* Pairs of rows that are often equal or one field apart. *)
let gen_row_pair =
  QCheck2.Gen.(
    let* a = array_size (int_bound 8) gen_field in
    let+ b =
      oneof
        [
          return (Array.copy a);
          (if Array.length a = 0 then return a
           else
             let+ i = int_bound (Array.length a - 1) and+ f = gen_field in
             let b = Array.copy a in
             b.(i) <- f;
             b);
          array_size (int_bound 8) gen_field;
        ]
    in
    a, b)

let prop_value_matches_boxed =
  QCheck2.Test.make ~name:"size_bytes/equal match boxed rows" ~count:500 gen_row_pair
    (fun (a, b) ->
      let ra = Value.of_fields a and rb = Value.of_fields b in
      let before = Gc.minor_words () in
      let eq = Value.equal ra rb and size = Value.size_bytes ra in
      let words = Gc.minor_words () -. before in
      eq = Boxed_value.equal a b && size = Boxed_value.size_bytes a && words = 0.)

(* -- Timestamp ------------------------------------------------------------------ *)

let test_timestamp_monotonic () =
  let ts = Timestamp.create () in
  check64 "starts at 0" 0L (Timestamp.current ts);
  let a = Timestamp.next ts in
  let b = Timestamp.next ts in
  checkb "strictly increasing" true (Int64.compare a b < 0);
  check64 "current tracks" b (Timestamp.current ts);
  checkb "bootstrap below all" true (Int64.compare Timestamp.bootstrap a < 0)

(* -- Latch ------------------------------------------------------------------------ *)

let test_latch_reentrant () =
  let l = Tuple.create ~oid:0 in
  checkb "acquire" true (Tuple.try_latch l ~owner:1);
  checkb "reentrant" true (Tuple.try_latch l ~owner:1);
  checkb "other blocked" false (Tuple.try_latch l ~owner:2);
  Tuple.unlatch l ~owner:1;
  Alcotest.(check (option int)) "still held" (Some 1) (Tuple.latch_holder l);
  Tuple.unlatch l ~owner:1;
  Alcotest.(check (option int)) "free" None (Tuple.latch_holder l);
  checkb "other can take now" true (Tuple.try_latch l ~owner:2)

let test_latch_release_errors () =
  let l = Tuple.create ~oid:0 in
  checkb "acquired" true (Tuple.try_latch l ~owner:1);
  checkb "wrong owner release raises" true
    (match Tuple.unlatch l ~owner:2 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* -- Version chains ---------------------------------------------------------------- *)

let row i = Value.of_fields [| Value.Int i |]

let test_version_visibility () =
  let v3 = Version.committed ~ts:30L (Some (row 3)) in
  let v2 = Version.committed ~ts:20L (Some (row 2)) in
  let v1 = Version.committed ~ts:10L (Some (row 1)) in
  v3.Version.next <- v2;
  v2.Version.next <- v1;
  let chain = v3 in
  checkb "well formed" true (Version.well_formed chain);
  let read snap =
    let v = Version.snapshot_read chain ~snapshot:snap ~reader:99 in
    if Version.is_nil v then -1 else Value.int_exn (Option.get v.Version.data) 0
  in
  checki "snapshot 30 sees v3" 3 (read 30L);
  checki "snapshot 25 sees v2" 2 (read 25L);
  checki "snapshot 10 sees v1" 1 (read 10L);
  checki "snapshot 5 sees nothing" (-1) (read 5L)

let test_version_own_write_visible () =
  let inflight = Version.in_flight ~writer:7 (Some (row 42)) in
  let v1 = Version.committed ~ts:10L (Some (row 1)) in
  inflight.Version.next <- v1;
  let chain = inflight in
  checkb "well formed with in-flight head" true (Version.well_formed chain);
  (let v = Version.snapshot_read chain ~snapshot:100L ~reader:7 in
   if Version.is_nil v then Alcotest.fail "writer must see own write"
   else checki "writer sees own" 42 (Value.int_exn (Option.get v.Version.data) 0));
  let v = Version.snapshot_read chain ~snapshot:100L ~reader:8 in
  if Version.is_nil v then Alcotest.fail "reader must see committed version"
  else checki "others skip in-flight" 1 (Value.int_exn (Option.get v.Version.data) 0)

let test_version_stamp () =
  let v = Version.in_flight ~writer:1 (Some (row 1)) in
  checkb "not committed" false (Version.is_committed v);
  Version.stamp v 5L;
  checkb "committed" true (Version.is_committed v);
  check64 "stamped" 5L v.Version.begin_ts;
  checkb "double stamp raises" true
    (match Version.stamp v 6L with () -> false | exception Invalid_argument _ -> true)

let test_version_latest_committed () =
  let inflight = Version.in_flight ~writer:1 (Some (row 9)) in
  let v = Version.committed ~ts:3L (Some (row 1)) in
  inflight.Version.next <- v;
  (let got = Version.latest_committed inflight in
   if Version.is_nil got then Alcotest.fail "expected committed version"
   else check64 "skips in-flight" 3L got.Version.begin_ts);
  checki "chain length" 2 (Version.chain_length inflight)

let test_version_ill_formed_detected () =
  (* timestamps must strictly decrease *)
  let v1 = Version.committed ~ts:10L (Some (row 1)) in
  let v2 = Version.committed ~ts:10L (Some (row 2)) in
  v1.Version.next <- v2;
  checkb "equal timestamps rejected" false (Version.well_formed v1);
  (* in-flight below head is ill-formed *)
  let top = Version.committed ~ts:20L (Some (row 3)) in
  let mid = Version.in_flight ~writer:1 (Some (row 4)) in
  top.Version.next <- mid;
  checkb "buried in-flight rejected" false (Version.well_formed top)

let test_version_all_in_flight_chain () =
  (* a chain holding only an uncommitted head: invisible to everyone but
     its writer, and "nothing committed" for every committed-state reader *)
  let head = Version.in_flight ~writer:7 (Some (row 42)) in
  let chain = head in
  if not (Version.is_nil (Version.snapshot_read chain ~snapshot:100L ~reader:8)) then
    Alcotest.fail "other readers must not see the in-flight version";
  checkb "no committed version" true (Version.is_nil (Version.latest_committed chain));
  checki "committed length 0" 0 (Version.committed_length chain);
  checki "raw length 1" 1 (Version.chain_length chain);
  (* the writer sees its own write even with a snapshot below everything *)
  let v = Version.snapshot_read chain ~snapshot:0L ~reader:7 in
  if Version.is_nil v then Alcotest.fail "writer must see its own in-flight version"
  else checki "own uncommitted visible" 42 (Value.int_exn (Option.get v.Version.data) 0)

let test_version_tombstone_head () =
  let dead = Version.committed ~ts:30L None in
  let live = Version.committed ~ts:10L (Some (row 1)) in
  dead.Version.next <- live;
  let chain = dead in
  checkb "well formed" true (Version.well_formed chain);
  (let v = Version.snapshot_read chain ~snapshot:35L ~reader:9 in
   if Version.is_nil v then Alcotest.fail "tombstone must be returned as the visible version"
   else checkb "deletion observed, not skipped" true (v.Version.data = None));
  (let v = Version.snapshot_read chain ~snapshot:15L ~reader:9 in
   if Version.is_nil v then Alcotest.fail "old snapshot must see the pre-delete version"
   else
     checki "pre-delete snapshot sees the old row" 1 (Value.int_exn (Option.get v.Version.data) 0));
  (let v = Version.latest_committed chain in
   if Version.is_nil v then Alcotest.fail "latest_committed must return the tombstone"
   else checkb "latest committed is the tombstone" true (v.Version.data = None));
  checki "committed length counts the tombstone" 2 (Version.committed_length chain)

let test_version_committed_length_skips_in_flight () =
  let head = Version.in_flight ~writer:3 (Some (row 9)) in
  let v = Version.committed ~ts:5L (Some (row 1)) in
  head.Version.next <- v;
  checki "raw length" 2 (Version.chain_length head);
  checki "committed length" 1 (Version.committed_length head)

(* A loaded tuple costs its slot, its tuple record, one version and the
   version's [Some row] box: 1 + 5 + 5 + 2 words.  The row itself is shared
   here, so only the per-tuple layout is counted. *)
let test_version_tuple_footprint () =
  let shared = row 1 in
  let loaded n =
    let table = Table.create ~id:0 ~name:"t" in
    for _ = 1 to n do
      Tuple.install (Table.alloc table) (Version.committed (Some shared))
    done;
    Obj.reachable_words (Obj.repr table)
  in
  checki "13 words per loaded tuple" (13 * 1024) (loaded 2048 - loaded 1024)

(* Every chain in every engine ends at the one shared [Version.nil], so a
   write to it would corrupt them all.  A run with reclamation exercises
   the paths that rewrite links: installs, GC truncation, aborts splicing
   out in-flight versions, and the version pool recycling both. *)
let test_version_nil_never_mutated () =
  let cfg =
    Preemptdb.Config.with_reclaim
      ~reclaim:
        {
          Preemptdb.Config.rc_chunk_tuples = 512;
          rc_epoch_interval_us = 20.;
          rc_gc_interval_us = 50.;
          rc_chunks_per_tick = 4;
          rc_non_preemptible = false;
        }
      {
        (Preemptdb.Config.default ~policy:(Preemptdb.Config.Preempt 1.0) ~n_workers:2 ()) with
        Preemptdb.Config.seed = 11L;
      }
  in
  let r =
    Preemptdb.Runner.run_maintenance ~cfg ~horizon_sec:0.01 ~arrival_interval_us:100. ()
  in
  (match r.Preemptdb.Runner.maint with
  | Some m -> checkb "GC unlinked versions" true (m.Preemptdb.Runner.ms_versions_reclaimed > 0)
  | None -> Alcotest.fail "maint summary missing");
  checkb "transactions aborted" true (Engine.total_aborts (Engine.stats r.Preemptdb.Runner.eng) > 0);
  let nil = Version.nil in
  checkb "is_nil nil" true (Version.is_nil nil);
  checkb "data still None" true (nil.Version.data = None);
  check64 "begin_ts still 0" 0L nil.Version.begin_ts;
  checkb "writer still None" true (nil.Version.writer = None);
  checkb "nil.next == nil" true (nil.Version.next == nil)

(* -- B+tree ------------------------------------------------------------------------ *)

let test_btree_basics () =
  let t = IT.create () in
  checki "empty" 0 (IT.length t);
  Alcotest.(check (option int)) "miss" None (IT.find t 5);
  Alcotest.(check (option int)) "fresh insert" None (IT.insert t 5 50);
  Alcotest.(check (option int)) "hit" (Some 50) (IT.find t 5);
  Alcotest.(check (option int)) "replace" (Some 50) (IT.insert t 5 51);
  checki "length unchanged on replace" 1 (IT.length t);
  Alcotest.(check (option int)) "remove" (Some 51) (IT.remove t 5);
  Alcotest.(check (option int)) "remove again" None (IT.remove t 5);
  checki "empty again" 0 (IT.length t)

let test_btree_bulk_and_invariants () =
  let t = IT.create () in
  let n = 10_000 in
  let rng = Sim.Rng.create 77L in
  let keys = Array.init n (fun i -> i) in
  Sim.Rng.shuffle rng keys;
  Array.iter (fun k -> ignore (IT.insert t k (k * 2))) keys;
  checki "all inserted" n (IT.length t);
  IT.check_invariants t;
  checkb "height grew" true (IT.height t > 1);
  for k = 0 to n - 1 do
    match IT.find t k with
    | Some v -> if v <> k * 2 then Alcotest.failf "wrong value for %d" k
    | None -> Alcotest.failf "missing key %d" k
  done;
  (* remove every third key *)
  for k = 0 to n - 1 do
    if k mod 3 = 0 then ignore (IT.remove t k)
  done;
  IT.check_invariants t;
  checki "removals counted" (n - ((n + 2) / 3)) (IT.length t)

(* Bindings in [lo, hi], ascending, through the public cursor. *)
let bindings_in t ~lo ~hi =
  let c = IT.cursor t ~lo ~hi in
  let acc = ref [] in
  while
    IT.cursor_next c (fun k v ->
        acc := (k, v) :: !acc;
        true)
  do
    ()
  done;
  List.rev !acc

let test_btree_range_fold () =
  let t = IT.create () in
  List.iter (fun k -> ignore (IT.insert t k k)) [ 1; 3; 5; 7; 9; 11 ];
  Alcotest.(check (list int)) "inclusive range" [ 3; 5; 7; 9 ]
    (List.map fst (bindings_in t ~lo:3 ~hi:9));
  checki "full range" 6 (List.length (bindings_in t ~lo:0 ~hi:max_int))

let test_btree_min_max () =
  let t = IT.create () in
  let ends () =
    match bindings_in t ~lo:min_int ~hi:max_int with
    | [] -> (None, None)
    | first :: _ as all -> (Some first, Some (List.nth all (List.length all - 1)))
  in
  Alcotest.(check (option (pair int int))) "empty min" None (fst (ends ()));
  Alcotest.(check (option (pair int int))) "empty max" None (snd (ends ()));
  List.iter (fun k -> ignore (IT.insert t k (10 * k))) [ 42; 7; 99; 13 ];
  Alcotest.(check (option (pair int int))) "min" (Some (7, 70)) (fst (ends ()));
  Alcotest.(check (option (pair int int))) "max" (Some (99, 990)) (snd (ends ()))

let test_btree_cursor_plain () =
  let t = IT.create () in
  for k = 0 to 200 do
    ignore (IT.insert t k k)
  done;
  let c = IT.cursor t ~lo:50 ~hi:60 in
  let keys = ref [] in
  let take k _ =
    keys := k :: !keys;
    k < 55
  in
  checkb "the callback's false stops a step" false (IT.cursor_next c (fun _ _ -> false));
  while IT.cursor_next c take do
    ()
  done;
  Alcotest.(check (list int)) "resumed after the stop" [ 51; 52; 53; 54; 55 ] (List.rev !keys);
  keys := [];
  while
    IT.cursor_next c (fun k _ ->
        keys := k :: !keys;
        true)
  do
    ()
  done;
  Alcotest.(check (list int)) "the rest of the range" [ 56; 57; 58; 59; 60 ] (List.rev !keys);
  checkb "exhausted: f is not called" false
    (IT.cursor_next c (fun _ _ -> Alcotest.fail "called past the end"))

let test_btree_cursor_survives_mutation () =
  let t = IT.create () in
  for k = 0 to 999 do
    ignore (IT.insert t (2 * k) k)
  done;
  let c = IT.cursor t ~lo:0 ~hi:10_000 in
  let seen = ref [] in
  let removed = Hashtbl.create 128 in
  let i = ref 0 in
  (* Interleave, from the step's own callback, inserts (odd keys,
     anywhere) and removals strictly behind the cursor — a split storm
     under its feet. *)
  let visit k _ =
    seen := k :: !seen;
    if !i mod 3 = 0 then ignore (IT.insert t ((2 * !i) + 1) !i);
    if !i mod 5 = 0 && k >= 40 then begin
      let victim = 2 * ((k - 30) / 2) in
      if IT.remove t victim <> None then Hashtbl.replace removed victim ()
    end;
    incr i;
    true
  in
  while IT.cursor_next c visit do
    ()
  done;
  IT.check_invariants t;
  let seen = List.rev !seen in
  (* never repeats *)
  let rec strictly_incr = function
    | a :: (b :: _ as rest) -> a < b && strictly_incr rest
    | _ -> true
  in
  checkb "strictly increasing (no repeats)" true (strictly_incr seen);
  (* every even key never removed must have been returned *)
  let seen_set = Hashtbl.create 1024 in
  List.iter (fun k -> Hashtbl.replace seen_set k ()) seen;
  for k = 0 to 999 do
    if not (Hashtbl.mem removed (2 * k)) then
      checkb "stable keys seen" true (Hashtbl.mem seen_set (2 * k))
  done

(* Random insert/remove/find sequences on either key type, single keys
   and runs, with up to three cursors opened part-way and advanced between
   the ops, against a [Map.Make] reference: the invariants hold after every
   op, every binding agrees, and each cursor returns ascending keys inside
   its range, never one twice, with the binding the reference holds, and
   skips no key that was present from its opening until it passed. *)
module Tree_vs_map (K : sig
  type t

  val compare : t -> t -> int
  val of_int : int -> t
end) (T : sig
  type t
  type cursor

  val create : unit -> t
  val length : t -> int
  val insert : t -> K.t -> int -> int option
  val find : t -> K.t -> int option
  val remove : t -> K.t -> int option
  val cursor : t -> lo:K.t -> hi:K.t -> cursor
  val cursor_next : cursor -> (K.t -> int -> bool) -> bool
  val check_invariants : t -> unit
end) =
struct
  module M = Map.Make (K)

  type open_cursor = {
    c : T.cursor;
    lo : K.t;
    hi : K.t;
    mutable last : K.t option;
    mutable stable : unit M.t;  (* present since the opening, not yet returned *)
  }

  let run ops =
    let t = T.create () in
    let reference = ref M.empty in
    let cursors = ref [] in
    let fail fmt = Printf.ksprintf failwith fmt in
    let insert k v =
      if T.insert t k v <> M.find_opt k !reference then fail "insert: old binding";
      reference := M.add k v !reference
    in
    let remove k =
      if T.remove t k <> M.find_opt k !reference then fail "remove: old binding";
      reference := M.remove k !reference;
      List.iter (fun oc -> oc.stable <- M.remove k oc.stable) !cursors
    in
    let visit oc k v =
      if K.compare k oc.lo < 0 || K.compare k oc.hi > 0 then fail "cursor left its range";
      (match oc.last with
      | Some l when K.compare l k >= 0 -> fail "cursor went back or repeated"
      | _ -> ());
      if M.find_opt k !reference <> Some v then fail "cursor binding disagrees";
      oc.last <- Some k;
      oc.stable <- M.remove k oc.stable;
      (match M.min_binding_opt oc.stable with
      | Some (s, ()) when K.compare s k < 0 -> fail "cursor skipped a stable key"
      | _ -> ());
      true
    in
    let step_cursor oc =
      if not (T.cursor_next oc.c (visit oc)) then begin
        if not (M.is_empty oc.stable) then fail "cursor skipped a stable key";
        cursors := List.filter (fun o -> o != oc) !cursors
      end
    in
    List.iteri
      (fun step (kind, key, arg) ->
        let k = K.of_int key in
        (match kind with
        | 0 | 1 | 2 -> insert k step
        | 3 ->
          for i = key to key + arg do
            insert (K.of_int i) step
          done
        | 4 -> remove k
        | 5 ->
          for i = key to key + arg do
            remove (K.of_int i)
          done
        | 6 -> if T.find t k <> M.find_opt k !reference then fail "find disagrees"
        | 7 ->
          if List.length !cursors < 3 then begin
            let lo = k and hi = K.of_int (key + arg) in
            let stable =
              M.filter_map
                (fun k' _ ->
                  if K.compare lo k' <= 0 && K.compare k' hi <= 0 then Some () else None)
                !reference
            in
            cursors := { c = T.cursor t ~lo ~hi; lo; hi; last = None; stable } :: !cursors
          end
        | _ -> (
          match !cursors with
          | [] -> ()
          | open_ -> step_cursor (List.nth open_ (arg mod List.length open_))));
        T.check_invariants t;
        if T.length t <> M.cardinal !reference then fail "length disagrees")
      ops;
    true
end

module Int_vs_map =
  Tree_vs_map
    (struct
      include Int

      let of_int = Fun.id
    end)
    (IT)

module Str_vs_map =
  Tree_vs_map
    (struct
      include String

      let of_int i = Printf.sprintf "k%04d" i
    end)
    (Btree.Str_tree)

(* Up to 600 ops over 3 000 keys, a fifth of them runs of up to 121 keys:
   leaves fill, grow, split and empty, and four cases in five reach three
   levels (a two-level tree holds at most 33 leaves of 32 keys). *)
let gen_tree_ops =
  QCheck2.Gen.(list_size (int_range 1 600) (triple (int_bound 9) (int_bound 2999) (int_bound 120)))

let prop_btree_int_ops =
  QCheck2.Test.make ~name:"Int_tree ops and cursors agree with Map" ~count:25 gen_tree_ops
    Int_vs_map.run

let prop_btree_str_ops =
  QCheck2.Test.make ~name:"Str_tree ops and cursors agree with Map" ~count:25 gen_tree_ops
    Str_vs_map.run

(* A leaf with room takes an insert in place: re-inserting a key just
   removed from a three-level tree allocates nothing, not even on the way
   back up through the internal nodes. *)
let test_btree_insert_in_place () =
  let t = IT.create () in
  for k = 0 to 1999 do
    ignore (IT.insert t (2 * k) k)
  done;
  ignore (IT.insert t 1001 0);
  ignore (IT.remove t 1001);
  checkb "three levels" true (IT.height t >= 3);
  let before = Gc.minor_words () in
  let old = IT.insert t 1001 1 in
  let words = Gc.minor_words () -. before in
  checkb "a fresh binding" true (old = None);
  Alcotest.(check (float 0.)) "minor words of an insert into a leaf with room" 0. words;
  IT.check_invariants t

(* A scan step reads the cursor's leaf and index and moves them in place:
   10^4 steps across hundreds of leaves of a three-level tree allocate
   nothing, a re-seek after each of ten version changes among them
   included.  Each change puts back a removed key the cursor has passed,
   an insert into a leaf with room, which allocates nothing itself. *)
let test_btree_scan_step_allocates_nothing () =
  let t = IT.create () in
  for k = 0 to 19_999 do
    ignore (IT.insert t (2 * k) k)
  done;
  checkb "three levels" true (IT.height t >= 3);
  let victims = List.init 10 (fun j -> (1_000 * (j + 1)) - 500) in
  List.iter (fun o -> ignore (IT.remove t (2 * o))) victims;
  let c = IT.cursor t ~lo:0 ~hi:max_int in
  let sum = ref 0 in
  let f _ oid =
    sum := !sum + oid;
    true
  in
  ignore (IT.cursor_next c f);
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    if i mod 1_000 = 0 then ignore (IT.insert t (2 * (i - 500)) (i - 500));
    ignore (IT.cursor_next c f)
  done;
  let words = Gc.minor_words () -. before in
  (* oids 1 to 10 010 less the victims: each is put back behind the cursor *)
  checki "stepped past the bindings in order"
    ((10_010 * 10_011 / 2) - List.fold_left ( + ) 0 victims)
    !sum;
  Alcotest.(check (float 0.)) "minor words over 10k scan steps" 0. words

(* A removed Str_tree key is garbage once no binding holds it: neither the
   slot it vacated nor the slack a grown leaf filled with it keeps it
   alive.  Single-leaf trees, so no separator holds a copy. *)
let[@inline never] insert_watched t w ~key =
  let k = String.init 3 (fun _ -> key) in
  Weak.set w 0 (Some k);
  ignore (Btree.Str_tree.insert t k 0)

let test_btree_removed_key_collectable () =
  List.iter
    (fun key ->
      let t = Btree.Str_tree.create () in
      List.iter (fun k -> ignore (Btree.Str_tree.insert t k 0)) [ "bbb"; "ddd" ];
      let w = Weak.create 1 in
      (* the third key grows the leaf to 4 slots, filling the slack with it *)
      insert_watched t w ~key;
      checkb "removed" true (Btree.Str_tree.remove t (String.make 3 key) <> None);
      Gc.full_major ();
      checkb (Printf.sprintf "%c%c%c collected" key key key) true (Weak.get w 0 = None);
      Btree.Str_tree.check_invariants t)
    [ 'a'; 'c'; 'z' ]

let prop_btree_matches_map =
  (* Each case bulk-loads 1100-1500 distinct keys in a scrambled order
     (a*i+b mod the prime 4001).  A leaf holds at most 32 keys, so 1100 keys
     need at least 35 leaves, more than one internal node's 33 children: the
     root internal node has split and the tree is at least 3 high.  Random
     inserts, removes and finds follow.  Then 70 consecutive present keys
     are removed: at least one whole leaf lies among them, so some removal
     takes a leaf's only key, and the emptied leaves are refilled and
     scanned. *)
  QCheck2.Test.make ~name:"btree agrees with Map on random op sequences" ~count:60
    QCheck2.Gen.(
      quad
        (triple (int_range 1100 1500) (int_range 1 4000) (int_bound 4000))
        (list_size (int_range 1 400) (pair (int_bound 2) (int_bound 4001)))
        nat
        (list_size (int_range 0 40) (int_bound 69)))
    (fun ((bulk, a, b), ops, cut, refill) ->
      let t = IT.create () in
      let module M = Map.Make (Int) in
      let reference = ref M.empty in
      let insert k =
        ignore (IT.insert t k k);
        reference := M.add k k !reference
      in
      let remove k =
        ignore (IT.remove t k);
        reference := M.remove k !reference
      in
      for i = 0 to bulk - 1 do
        insert (((a * i) + b) mod 4001)
      done;
      let tall = IT.height t >= 3 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 -> insert k
          | 1 -> remove k
          | _ -> (
            match IT.find t k, M.find_opt k !reference with
            | Some a, Some b when a = b -> ()
            | None, None -> ()
            | _ -> failwith "find mismatch"))
        ops;
      let present = Array.of_list (List.map fst (M.bindings !reference)) in
      let start = cut mod (Array.length present - 70) in
      let gone = Array.sub present start 70 in
      Array.iter remove gone;
      IT.check_invariants t;
      List.iter (fun i -> insert gone.(i)) refill;
      IT.check_invariants t;
      let scanned = bindings_in t ~lo:0 ~hi:4001 in
      tall
      && IT.length t = M.cardinal !reference
      && scanned = M.bindings !reference
      && Array.for_all (fun k -> IT.find t k = M.find_opt k !reference) gone
      && M.for_all (fun k v -> IT.find t k = Some v) !reference)

(* -- Engine: basic transaction lifecycle -------------------------------------------- *)

let mk_engine () =
  let eng = Engine.create () in
  let table = Engine.create_table eng "accounts" in
  eng, table

let seed_row eng table v =
  let txn = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  let tuple = Engine.insert eng txn table (row v) in
  (match Engine.commit eng txn with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "seed commit failed");
  tuple.Tuple.oid

let read_int eng txn table oid =
  match Engine.read eng txn table ~oid with
  | Some r -> Value.int_exn r 0
  | None -> -1

let test_engine_insert_read_commit () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 10 in
  let txn = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  checki "committed data visible" 10 (read_int eng txn table oid);
  (match Engine.commit eng txn with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  checki "commits counted" 2 (Engine.stats eng).Engine.commits

let test_engine_read_your_writes () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let txn = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng txn table ~oid (row 2) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update");
  checki "sees own write" 2 (read_int eng txn table oid);
  (match Engine.update eng txn table ~oid (row 3) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "second update");
  checki "in-place second write" 3 (read_int eng txn table oid);
  (match Engine.commit eng txn with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  let reader = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  checki "committed" 3 (read_int eng reader table oid);
  Engine.abort eng reader

let test_engine_snapshot_isolation () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 100 in
  let reader = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  let writer = Engine.begin_txn eng ~worker:1 ~ctx:0 in
  (match Engine.update eng writer table ~oid (row 200) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update");
  checki "reader misses in-flight" 100 (read_int eng reader table oid);
  (match Engine.commit eng writer with Ok _ -> () | Error _ -> Alcotest.fail "commit");
  checki "reader snapshot stable after concurrent commit" 100 (read_int eng reader table oid);
  let late = Engine.begin_txn eng ~worker:2 ~ctx:0 in
  checki "new snapshot sees update" 200 (read_int eng late table oid);
  Engine.abort eng reader;
  Engine.abort eng late

let test_engine_first_updater_wins () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let t1 = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  let t2 = Engine.begin_txn eng ~worker:1 ~ctx:0 in
  (match Engine.update eng t1 table ~oid (row 2) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "t1 update");
  (match Engine.update eng t2 table ~oid (row 3) with
  | Ok () -> Alcotest.fail "t2 must conflict"
  | Error r -> checkb "write conflict" true (r = Err.Write_conflict));
  Engine.abort ~reason:Err.Write_conflict eng t2;
  (match Engine.commit eng t1 with Ok _ -> () | Error _ -> Alcotest.fail "t1 commit");
  checki "conflict counted" 1 (Engine.stats eng).Engine.aborts_conflict

let test_engine_first_committer_wins () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let t2 = Engine.begin_txn eng ~worker:1 ~ctx:0 in
  (* t1 commits an update after t2's snapshot *)
  let t1 = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng t1 table ~oid (row 2) with Ok () -> () | Error _ -> Alcotest.fail "u1");
  (match Engine.commit eng t1 with Ok _ -> () | Error _ -> Alcotest.fail "c1");
  (* now t2 (older snapshot) writes the same record: SI forbids it *)
  (match Engine.update eng t2 table ~oid (row 3) with
  | Ok () -> Alcotest.fail "stale write must conflict"
  | Error r -> checkb "conflict" true (r = Err.Write_conflict));
  Engine.abort ~reason:Err.Write_conflict eng t2

let test_engine_read_committed_sees_latest () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let rc = Engine.begin_txn ~iso:Txn.Read_committed eng ~worker:0 ~ctx:0 in
  checki "initial" 1 (read_int eng rc table oid);
  let w = Engine.begin_txn eng ~worker:1 ~ctx:0 in
  (match Engine.update eng w table ~oid (row 2) with Ok () -> () | Error _ -> Alcotest.fail "u");
  (match Engine.commit eng w with Ok _ -> () | Error _ -> Alcotest.fail "c");
  checki "read committed sees new version" 2 (read_int eng rc table oid);
  Engine.abort eng rc

let test_engine_delete_tombstone () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.delete eng t table ~oid with Ok () -> () | Error _ -> Alcotest.fail "d");
  checkb "deleted for self" true (Engine.read eng t table ~oid = None);
  (match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "c");
  let r = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  checkb "deleted for new snapshot" true (Engine.read eng r table ~oid = None);
  Engine.abort eng r

let test_engine_abort_rolls_back () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let undo_ran = ref false in
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng t table ~oid (row 99) with Ok () -> () | Error _ -> Alcotest.fail "u");
  Txn.on_abort t (fun () -> undo_ran := true);
  Engine.abort eng t;
  checkb "undo hook ran" true !undo_ran;
  let r = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  checki "old value back" 1 (read_int eng r table oid);
  checkb "chain clean" true (Version.well_formed (Tuple.head (Table.get table oid)));
  Engine.abort eng r

let test_engine_abort_unlinks_buried_in_flight () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let tuple = Table.get table oid in
  let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
  (match Engine.update eng t table ~oid (row 99) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "update refused");
  (* squeeze a committed version in above the in-flight head, as an
     injected first-updater-wins fault (or a buggy GC) could *)
  Tuple.install tuple (Version.committed ~ts:1000L (Some (row 7)));
  checki "in-flight buried below the head" 3 (Version.chain_length (Tuple.head tuple));
  Engine.abort eng t;
  checki "aborted version spliced out from mid-chain" 2
    (Version.chain_length (Tuple.head tuple));
  checkb "no in-flight garbage left" true
    (let v = Tuple.head tuple in
     (not (Version.is_nil v)) && Version.is_committed v);
  checkb "chain well-formed after the splice" true
    (Version.well_formed (Tuple.head tuple))

let test_engine_chain_stats () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  for i = 2 to 4 do
    let t = Engine.begin_txn eng ~worker:0 ~ctx:0 in
    (match Engine.update eng t table ~oid (row i) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "update refused");
    match Engine.commit eng t with Ok _ -> () | Error _ -> Alcotest.fail "commit failed"
  done;
  ignore (seed_row eng table 9);
  match Engine.chain_stats eng with
  | [ cs ] ->
    Alcotest.(check string) "table name" "accounts" cs.Engine.cs_table;
    checki "tuples" 2 cs.Engine.cs_tuples;
    checki "versions" 5 cs.Engine.cs_versions;
    checki "max committed chain" 4 cs.Engine.cs_max_len;
    Alcotest.(check (float 1e-9)) "mean" 2.5 cs.Engine.cs_mean_len
  | l -> Alcotest.failf "expected one table stat, got %d" (List.length l)

let test_engine_serializable_validation () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let t = Engine.begin_txn ~iso:Txn.Serializable eng ~worker:0 ~ctx:0 in
  checki "read" 1 (read_int eng t table oid);
  (* concurrent committed write invalidates the read *)
  let w = Engine.begin_txn eng ~worker:1 ~ctx:0 in
  (match Engine.update eng w table ~oid (row 2) with Ok () -> () | Error _ -> Alcotest.fail "u");
  (match Engine.commit eng w with Ok _ -> () | Error _ -> Alcotest.fail "c");
  (match Engine.commit eng t with
  | Ok _ -> Alcotest.fail "validation must fail"
  | Error r -> checkb "read validation" true (r = Err.Read_validation));
  checki "validation abort counted" 1 (Engine.stats eng).Engine.aborts_validation

let test_engine_serializable_readonly_ok () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let t = Engine.begin_txn ~iso:Txn.Serializable eng ~worker:0 ~ctx:0 in
  checki "read" 1 (read_int eng t table oid);
  match Engine.commit eng t with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "read-only serializable must commit"

(* Staged commit: a serializable transaction holds read-set latches across
   stages; a same-thread sibling hitting those latches is a §4.4 deadlock. *)
let test_engine_staged_commit_busy_latch () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let a = Engine.begin_txn ~iso:Txn.Serializable eng ~worker:0 ~ctx:0 in
  checki "a reads" 1 (read_int eng a table oid);
  Engine.commit_begin eng a;
  (match Engine.commit_latch_next eng a with
  | `Acquired -> ()
  | `Busy _ | `Done -> Alcotest.fail "a acquires its read latch");
  (* a is now "paused" mid-commit; sibling b on the same worker, other
     context, writes the same record and tries to commit *)
  let b = Engine.begin_txn ~iso:Txn.Serializable eng ~worker:0 ~ctx:1 in
  checki "b reads" 1 (read_int eng b table oid);
  Engine.commit_begin eng b;
  (match Engine.commit_latch_next eng b with
  | `Busy owner ->
    checki "owner is a" a.Txn.id owner;
    (* the executor would now consult worker identity and declare deadlock *)
    (match Engine.active_txn eng owner with
    | Some o -> checki "same worker" 0 o.Txn.worker
    | None -> Alcotest.fail "owner must be active")
  | `Acquired | `Done -> Alcotest.fail "b must block on a's latch");
  Engine.abort ~reason:Err.Latch_deadlock eng b;
  (match Engine.commit_validate eng a with Ok () -> () | Error _ -> Alcotest.fail "a validates");
  let ts = Engine.commit_install eng a in
  checkb "a committed" true (Int64.compare ts 0L > 0);
  checki "deadlock abort counted" 1 (Engine.stats eng).Engine.aborts_deadlock;
  (* the latch must be free again after both paths *)
  checkb "latch released" true (Tuple.latch_holder (Table.get table oid) = None)

let test_engine_commit_releases_latches_on_validation_failure () =
  let eng, table = mk_engine () in
  let oid = seed_row eng table 1 in
  let t = Engine.begin_txn ~iso:Txn.Serializable eng ~worker:0 ~ctx:0 in
  checki "read" 1 (read_int eng t table oid);
  let w = Engine.begin_txn eng ~worker:1 ~ctx:0 in
  (match Engine.update eng w table ~oid (row 2) with Ok () -> () | Error _ -> Alcotest.fail "u");
  (match Engine.commit eng w with Ok _ -> () | Error _ -> Alcotest.fail "c");
  (match Engine.commit eng t with
  | Error Err.Read_validation -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected validation failure");
  checkb "latch released after failed commit" true
    (Tuple.latch_holder (Table.get table oid) = None)

let test_engine_table_registry () =
  let eng = Engine.create () in
  let t1 = Engine.create_table eng "a" in
  let _t2 = Engine.create_table eng "b" in
  checkb "lookup" true (Engine.table eng "a" == t1);
  checki "listing in creation order" 2 (List.length (Engine.tables eng));
  checkb "duplicate rejected" true
    (match Engine.create_table eng "a" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  checkb "unknown raises" true
    (match Engine.table eng "zzz" with _ -> false | exception Not_found -> true)

(* Random interleavings of concurrent transactions must preserve the SI
   contract: no dirty reads, stable snapshots, and a final state equal to
   the committed transactions' effects in commit order. *)
let prop_si_interleavings =
  QCheck2.Test.make ~name:"SI invariants under random interleavings" ~count:150
    QCheck2.Gen.(list_size (int_range 4 60) (pair (int_bound 1) (pair (int_bound 3) (int_bound 4))))
    (fun script ->
      let eng, table = mk_engine () in
      let n_keys = 3 in
      let oids = Array.init n_keys (fun i -> seed_row eng table i) in
      (* two concurrent transaction slots; each script step targets one *)
      let slots = Array.make 2 None in
      let first_reads = Array.make_matrix 2 n_keys None in
      let ok = ref true in
      let get_txn slot =
        match slots.(slot) with
        | Some t -> t
        | None ->
          let t = Engine.begin_txn eng ~worker:slot ~ctx:0 in
          Array.fill first_reads.(slot) 0 n_keys None;
          slots.(slot) <- Some t;
          t
      in
      let close slot = slots.(slot) <- None in
      List.iter
        (fun (slot, (action, key)) ->
          let key = key mod n_keys in
          let txn = get_txn slot in
          if Txn.is_active txn then
            match action with
            | 0 -> (
              (* read: snapshot-stable unless we wrote it ourselves *)
              let v = Engine.read eng txn table ~oid:oids.(key) in
              let wrote_it = Txn.find_write txn (Table.get table oids.(key)) <> None in
              match first_reads.(slot).(key) with
              | Some prev when not wrote_it -> if prev <> v then ok := false
              | Some _ -> first_reads.(slot).(key) <- Some v
              | None -> first_reads.(slot).(key) <- Some v)
            | _ -> (
              match Engine.update eng txn table ~oid:oids.(key) (row (100 + key)) with
              | Ok () -> first_reads.(slot).(key) <- None
              | Error _ ->
                Engine.abort ~reason:Err.Write_conflict eng txn;
                close slot))
        script;
      (* finish whatever is still open *)
      Array.iteri
        (fun slot t ->
          match t with
          | Some txn when Txn.is_active txn ->
            ignore (Engine.commit eng txn);
            close slot
          | Some _ | None -> ())
        slots;
      (* all chains well-formed, no in-flight heads remain *)
      Array.iter
        (fun oid ->
          let chain = Tuple.head (Table.get table oid) in
          if not (Version.well_formed chain) then ok := false;
          if not (Version.is_committed chain) then ok := false)
        oids;
      !ok)

(* The commit latch plan as it was first written: a quadratic dedup with
   [List.mem_assoc], then a polymorphic sort by (table id, oid).  Kept as
   the reference the production plan must match entry for entry. *)
let reference_latch_plan (txn : Txn.t) =
  let add acc table tuple =
    let key = (Table.id table, tuple.Tuple.oid) in
    if List.mem_assoc key acc then acc else (key, tuple) :: acc
  in
  let acc = List.fold_left (fun acc w -> add acc w.Txn.wtable w.Txn.wtuple) [] txn.Txn.writes in
  let acc =
    if txn.Txn.iso = Txn.Serializable then
      List.fold_left (fun acc r -> add acc r.Txn.rtable r.Txn.rtuple) acc txn.Txn.reads
    else acc
  in
  Array.of_list (List.map snd (List.sort (fun (k1, _) (k2, _) -> compare k1 k2) acc))

let prop_latch_plan_matches_reference =
  QCheck2.Test.make ~name:"latch plan matches the quadratic reference" ~count:200
    QCheck2.Gen.(
      pair bool (list_size (int_range 0 40) (triple (int_bound 2) (int_bound 5) bool)))
    (fun (serializable, ops) ->
      let eng = Engine.create () in
      let tables =
        Array.init 3 (fun i ->
            let table = Engine.create_table eng (Printf.sprintf "t%d" i) in
            for v = 0 to 5 do
              ignore (seed_row eng table v)
            done;
            table)
      in
      let iso = if serializable then Txn.Serializable else Txn.Si in
      let txn = Engine.begin_txn ~iso eng ~worker:0 ~ctx:0 in
      List.iter
        (fun (ti, oid, write) ->
          if write then ignore (Engine.update eng txn tables.(ti) ~oid (row oid))
          else ignore (Engine.read eng txn tables.(ti) ~oid))
        ops;
      Engine.commit_begin eng txn;
      let plan = txn.Txn.latch_plan and reference = reference_latch_plan txn in
      Engine.abort eng txn;
      Array.length plan = Array.length reference && Array.for_all2 ( == ) plan reference)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "storage"
    [
      ( "value",
        [
          Alcotest.test_case "accessors" `Quick test_value_accessors;
          Alcotest.test_case "functional update" `Quick test_value_functional_update;
          Alcotest.test_case "flat row round trip" `Quick test_value_flat_round_trip;
          Alcotest.test_case "row footprint" `Quick test_value_row_footprint;
        ]
        @ qsuite [ prop_value_matches_boxed ] );
      ("timestamp", [ Alcotest.test_case "monotonic" `Quick test_timestamp_monotonic ]);
      ( "latch",
        [
          Alcotest.test_case "reentrant" `Quick test_latch_reentrant;
          Alcotest.test_case "release errors" `Quick test_latch_release_errors;
        ] );
      ( "version",
        [
          Alcotest.test_case "snapshot visibility" `Quick test_version_visibility;
          Alcotest.test_case "own writes visible" `Quick test_version_own_write_visible;
          Alcotest.test_case "stamping" `Quick test_version_stamp;
          Alcotest.test_case "latest committed" `Quick test_version_latest_committed;
          Alcotest.test_case "ill-formed chains detected" `Quick test_version_ill_formed_detected;
          Alcotest.test_case "all-in-flight chain" `Quick test_version_all_in_flight_chain;
          Alcotest.test_case "tombstone head" `Quick test_version_tombstone_head;
          Alcotest.test_case "committed length" `Quick
            test_version_committed_length_skips_in_flight;
          Alcotest.test_case "tuple footprint" `Quick test_version_tuple_footprint;
          Alcotest.test_case "nil is never mutated" `Quick test_version_nil_never_mutated;
        ] );
      ( "btree",
        [
          Alcotest.test_case "basics" `Quick test_btree_basics;
          Alcotest.test_case "bulk + invariants" `Slow test_btree_bulk_and_invariants;
          Alcotest.test_case "range fold" `Quick test_btree_range_fold;
          Alcotest.test_case "min/max" `Quick test_btree_min_max;
          Alcotest.test_case "cursor" `Quick test_btree_cursor_plain;
          Alcotest.test_case "cursor survives mutation" `Quick test_btree_cursor_survives_mutation;
          Alcotest.test_case "an int-tree scan step allocates nothing" `Quick
            test_btree_scan_step_allocates_nothing;
          Alcotest.test_case "insert into a leaf with room allocates nothing" `Quick
            test_btree_insert_in_place;
          Alcotest.test_case "removed key is not kept alive" `Quick
            test_btree_removed_key_collectable;
        ]
        @ qsuite [ prop_btree_matches_map; prop_btree_int_ops; prop_btree_str_ops ] );
      ( "engine",
        [
          Alcotest.test_case "insert/read/commit" `Quick test_engine_insert_read_commit;
          Alcotest.test_case "read your writes" `Quick test_engine_read_your_writes;
          Alcotest.test_case "snapshot isolation" `Quick test_engine_snapshot_isolation;
          Alcotest.test_case "first updater wins" `Quick test_engine_first_updater_wins;
          Alcotest.test_case "first committer wins" `Quick test_engine_first_committer_wins;
          Alcotest.test_case "read committed" `Quick test_engine_read_committed_sees_latest;
          Alcotest.test_case "delete tombstone" `Quick test_engine_delete_tombstone;
          Alcotest.test_case "abort rollback" `Quick test_engine_abort_rolls_back;
          Alcotest.test_case "abort unlinks buried in-flight" `Quick
            test_engine_abort_unlinks_buried_in_flight;
          Alcotest.test_case "chain stats" `Quick test_engine_chain_stats;
          Alcotest.test_case "serializable validation" `Quick test_engine_serializable_validation;
          Alcotest.test_case "serializable read-only" `Quick test_engine_serializable_readonly_ok;
          Alcotest.test_case "staged commit busy latch (§4.4)" `Quick
            test_engine_staged_commit_busy_latch;
          Alcotest.test_case "latches released on failed validation" `Quick
            test_engine_commit_releases_latches_on_validation_failure;
          Alcotest.test_case "table registry" `Quick test_engine_table_registry;
        ]
        @ qsuite [ prop_si_interleavings; prop_latch_plan_matches_reference ] );
    ]
