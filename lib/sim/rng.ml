(* The xoshiro256** state, s0..s3, as four native-endian 64-bit words in
   one 32-byte buffer.  Loads and stores through [Bytes.get_int64_ne] and
   [set_int64_ne] stay unboxed, where a mutable [int64] field would box a
   fresh value on every store (21 words a draw), so a draw that [int],
   [int_in], [float] or [bool] consume allocates nothing. *)
type t = { s : Bytes.t; mutable draws_ : int }

(* splitmix64, used only for seeding so that nearby seeds give unrelated
   xoshiro states. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref seed in
  let s = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne s (8 * i) (splitmix64 state)
  done;
  { s; draws_ = 0 }

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** step *)
let[@inline] next_int64 t =
  t.draws_ <- t.draws_ + 1;
  let b = t.s in
  let s0 = Bytes.get_int64_ne b 0 and s1 = Bytes.get_int64_ne b 8 in
  let s2 = Bytes.get_int64_ne b 16 and s3 = Bytes.get_int64_ne b 24 in
  let open Int64 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  Bytes.set_int64_ne b 0 (logxor s0 s3);
  Bytes.set_int64_ne b 8 (logxor s1 s2);
  Bytes.set_int64_ne b 16 (logxor s2 tmp);
  Bytes.set_int64_ne b 24 (rotl s3 45);
  result

let split t = create (next_int64 t)
let copy t = { s = Bytes.copy t.s; draws_ = t.draws_ }
let draws t = t.draws_

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays non-negative as a native OCaml int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits into [0,1) then scale. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* avoid log 0 *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let alpha_string t ~min_len ~max_len =
  let len = int_in t min_len max_len in
  String.init len (fun _ -> Char.chr (Char.code 'a' + int t 26))
