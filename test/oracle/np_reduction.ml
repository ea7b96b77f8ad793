type instance = {
  table : Fulib.Table.t;
  deadline : int;
  big : int;
}

let two_types = Fulib.Library.make [| "Select"; "Skip" |]

let of_knapsack ~items ~capacity =
  let n = Array.length items in
  let big =
    1 + Array.fold_left (fun acc i -> max acc i.Knapsack.value) 0 items
  in
  let time =
    Array.map (fun { Knapsack.weight; _ } -> [| weight + 1; 1 |]) items
  in
  let cost =
    Array.map (fun { Knapsack.value; _ } -> [| big - value; big |]) items
  in
  let table = Fulib.Table.make ~library:two_types ~time ~cost in
  { table; deadline = n + capacity; big }

let cost_threshold inst ~target_value =
  (Fulib.Table.num_nodes inst.table * inst.big) - target_value

let subset_of_assignment a = Array.map (fun t -> t = 0) a

let decide_via_assignment ~items ~capacity ~target_value =
  let inst = of_knapsack ~items ~capacity in
  match
    Assign.Tree_assign.solve_with_cost (Path_assign.chain inst.table)
      inst.table ~deadline:inst.deadline
  with
  | None -> target_value <= 0
  | Some (_, cost) -> cost <= cost_threshold inst ~target_value
