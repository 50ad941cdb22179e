let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty input";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0,100]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  sorted.(rank - 1)
