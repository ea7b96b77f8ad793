type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create seed =
  { state = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: non-positive bound";
  (* keep 62 bits so the value fits OCaml's native int and stays positive *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0 (* 2^53 *)

let split t = { state = next t }
