type t = {
  sub_buckets : int;
  sub_bits : int;  (* log2 sub_buckets *)
  counts : int array;
  mutable n : int;
  mutable minv : int64;
  mutable maxv : int64;
  mutable sum : float;
}

let is_power_of_two x = x > 0 && x land (x - 1) = 0

let log2i x =
  let rec loop acc x = if x <= 1 then acc else loop (acc + 1) (x lsr 1) in
  loop 0 x

(* Index layout: values < sub_buckets land in a linear prefix (index = value).
   Above that, each power-of-two range [2^k, 2^(k+1)) for k >= sub_bits is
   split into sub_buckets linear slices.  Same scheme as HdrHistogram with a
   unit lowest discernible value. *)
let n_slots sub_bits =
  (* 64-bit values: ranges k = sub_bits .. 62, plus the linear prefix. *)
  let ranges = 63 - sub_bits in
  (1 lsl sub_bits) + (ranges lsl (sub_bits - 1))

let create ?(sub_buckets = 64) () =
  if sub_buckets < 2 || not (is_power_of_two sub_buckets) then
    invalid_arg "Histogram.create: sub_buckets must be a power of two >= 2";
  let sub_bits = log2i sub_buckets in
  {
    sub_buckets;
    sub_bits;
    counts = Array.make (n_slots sub_bits) 0;
    n = 0;
    minv = Int64.max_int;
    maxv = Int64.min_int;
    sum = 0.;
  }

(* A loop over a local ref, which the compiler keeps unboxed: a recursive
   loop passing the int64 boxed a word of it per bit. *)
let bit_length (v : int64) =
  let v = ref v and n = ref 0 in
  while not (Int64.equal !v 0L) do
    incr n;
    v := Int64.shift_right_logical !v 1
  done;
  !n

let index_of t v =
  let v = if Int64.compare v 0L < 0 then 0L else v in
  let bl = bit_length v in
  if bl <= t.sub_bits then Int64.to_int v
  else begin
    (* v in [2^(bl-1), 2^bl); slice width 2^(bl - sub_bits) *)
    let k = bl - 1 in
    let shift = k - (t.sub_bits - 1) in
    let within = Int64.to_int (Int64.shift_right_logical v shift) land ((1 lsl (t.sub_bits - 1)) - 1) in
    let base = (1 lsl t.sub_bits) + ((k - t.sub_bits) lsl (t.sub_bits - 1)) in
    base + within
  end

(* Upper bound of the bucket at [idx] (inclusive). *)
let bucket_high t idx =
  if idx < 1 lsl t.sub_bits then Int64.of_int idx
  else begin
    let rel = idx - (1 lsl t.sub_bits) in
    let k = t.sub_bits + (rel lsr (t.sub_bits - 1)) in
    let within = rel land ((1 lsl (t.sub_bits - 1)) - 1) in
    let slice = Int64.shift_left 1L (k - (t.sub_bits - 1)) in
    let low = Int64.add (Int64.shift_left 1L k) (Int64.mul (Int64.of_int within) slice) in
    Int64.sub (Int64.add low slice) 1L
  end

let record t v =
  let v = if Int64.compare v 0L < 0 then 0L else v in
  let idx = index_of t v in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.n <- t.n + 1;
  if Int64.compare v t.minv < 0 then t.minv <- v;
  if Int64.compare v t.maxv > 0 then t.maxv <- v;
  t.sum <- t.sum +. Int64.to_float v
let count t = t.n
let is_empty t = t.n = 0

let check_nonempty t name =
  if t.n = 0 then invalid_arg (Printf.sprintf "Histogram.%s: empty histogram" name)

let min_value t = check_nonempty t "min_value"; t.minv
let max_value t = check_nonempty t "max_value"; t.maxv
let mean t = check_nonempty t "mean"; t.sum /. float_of_int t.n
let total t = t.sum

let percentile t p =
  check_nonempty t "percentile";
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile: p out of [0,100]";
  let target =
    let raw = int_of_float (ceil (p /. 100. *. float_of_int t.n)) in
    if raw < 1 then 1 else if raw > t.n then t.n else raw
  in
  let rec loop idx seen =
    let seen = seen + t.counts.(idx) in
    if seen >= target then min (bucket_high t idx) t.maxv
    else loop (idx + 1) seen
  in
  loop 0 0

let merge_into ~src ~dst =
  if src.sub_buckets <> dst.sub_buckets then
    invalid_arg "Histogram.merge_into: precision mismatch";
  Array.iteri (fun i c -> if c > 0 then dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if Int64.compare src.minv dst.minv < 0 then dst.minv <- src.minv;
  if Int64.compare src.maxv dst.maxv > 0 then dst.maxv <- src.maxv;
  dst.sum <- dst.sum +. src.sum

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n <- 0;
  t.minv <- Int64.max_int;
  t.maxv <- Int64.min_int;
  t.sum <- 0.
