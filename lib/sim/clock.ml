type t = { hz : float }

let create ?(ghz = 2.4) () =
  if ghz <= 0. then invalid_arg "Clock.create: frequency must be positive";
  { hz = ghz *. 1e9 }

let default = create ()

let cycles_of_sec t s = Int64.of_float (s *. t.hz)
let cycles_of_ms t ms = cycles_of_sec t (ms *. 1e-3)
let cycles_of_us t us = cycles_of_sec t (us *. 1e-6)

let sec_of_cycles t c = Int64.to_float c /. t.hz
let ms_of_cycles t c = sec_of_cycles t c *. 1e3
let us_of_cycles t c = sec_of_cycles t c *. 1e6
let ns_of_cycles t c = sec_of_cycles t c *. 1e9

let pp_cycles t ppf c =
  let ns = ns_of_cycles t c in
  let abs = Float.abs ns in
  if abs < 1e3 then Format.fprintf ppf "%.3gns" ns
  else if abs < 1e6 then Format.fprintf ppf "%.3gus" (ns /. 1e3)
  else if abs < 1e9 then Format.fprintf ppf "%.3gms" (ns /. 1e6)
  else Format.fprintf ppf "%.3gs" (ns /. 1e9)
