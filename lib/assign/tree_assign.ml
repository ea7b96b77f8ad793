let check_tree g =
  if not (Dfg.Graph.is_tree g) then
    invalid_arg "Tree_assign: DAG portion is not a forest"

(* The DP on [tree], which is [g] or its transpose; the kernel reads the
   memory footprints from [g] either way. *)
let solve_on tree g table ~deadline =
  check_tree tree;
  if deadline < 0 then None
  else if Dfg.Graph.num_nodes g = 0 then Some ([||], 0)
  else Tree_kernel.solve (Tree_kernel.of_table ~tree g table ~deadline)

let solve_with_cost g table ~deadline = solve_on g g table ~deadline

let solve g table ~deadline =
  Option.map fst (solve_with_cost g table ~deadline)

let solve_auto g table ~deadline =
  let tree = if Dfg.Graph.is_tree g then g else Dfg.Transpose.transpose g in
  solve_on tree g table ~deadline

let dp_row g table ~deadline ~node =
  check_tree g;
  Tree_kernel.dp_row (Tree_kernel.of_table g table ~deadline) ~node
