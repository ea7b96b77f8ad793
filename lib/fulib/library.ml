type t = { names : string array; mem_capacity : int array }

let unbounded_mem = max_int

let make ?mem_capacity names =
  if Array.length names = 0 then invalid_arg "Library.make: no FU types";
  let mem_capacity =
    match mem_capacity with
    | None -> Array.make (Array.length names) unbounded_mem
    | Some caps ->
        if Array.length caps <> Array.length names then
          invalid_arg "Library.make: mem_capacity length mismatch";
        Array.iter
          (fun c -> if c < 0 then invalid_arg "Library.make: negative mem_capacity")
          caps;
        Array.copy caps
  in
  { names = Array.copy names; mem_capacity }

let num_types t = Array.length t.names
let type_name t k = t.names.(k)
let mem_capacity t k = t.mem_capacity.(k)
let mem_capacities t = t.mem_capacity
let mem_bounded t = Array.exists (fun c -> c < unbounded_mem) t.mem_capacity

let with_mem_capacity t caps =
  make ~mem_capacity:caps t.names

let standard3 = make [| "P1"; "P2"; "P3" |]
