type t = {
  setup_cycles : int;
  per_byte_cycles_x100 : int;
  fsync_floor_cycles : int64;
  mutable busy_until : int64;
  mutable flushes : int;
  mutable bytes_written : int64;
  mutable busy_cycles : int64;
}

let create ?(setup_cycles = 1200) ?(per_byte_cycles_x100 = 60)
    ?(fsync_floor_cycles = 9600L) () =
  if setup_cycles < 0 then invalid_arg "Device.create: setup_cycles negative";
  if per_byte_cycles_x100 < 0 then
    invalid_arg "Device.create: per_byte_cycles_x100 negative";
  if Int64.compare fsync_floor_cycles 0L < 0 then
    invalid_arg "Device.create: fsync_floor_cycles negative";
  {
    setup_cycles;
    per_byte_cycles_x100;
    fsync_floor_cycles;
    busy_until = 0L;
    flushes = 0;
    bytes_written = 0L;
    busy_cycles = 0L;
  }

let cost t ~bytes =
  if bytes < 0 then invalid_arg "Device.cost: bytes negative";
  let transfer =
    Int64.of_int (t.setup_cycles + (bytes * t.per_byte_cycles_x100 / 100))
  in
  Int64.max t.fsync_floor_cycles transfer

let submit t ~now ~bytes =
  let start = Int64.max now t.busy_until in
  let c = cost t ~bytes in
  let completion = Int64.add start c in
  t.busy_until <- completion;
  t.flushes <- t.flushes + 1;
  t.bytes_written <- Int64.add t.bytes_written (Int64.of_int bytes);
  t.busy_cycles <- Int64.add t.busy_cycles c;
  completion

let fsync_floor t = Int64.to_int t.fsync_floor_cycles
let flushes t = t.flushes
let bytes_written t = t.bytes_written
let busy_cycles t = t.busy_cycles
