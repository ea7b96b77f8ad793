type t = int array

let total = Array.fold_left ( + ) 0

let dominates (c : int array) c' =
  Array.length c = Array.length c'
  && Array.for_all2 (fun a b -> a >= b) c c'

let to_string c =
  String.concat "-" (List.map string_of_int (Array.to_list c))

let pp ppf c = Format.pp_print_string ppf (to_string c)
