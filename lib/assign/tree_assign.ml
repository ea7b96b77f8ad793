let not_a_forest () = invalid_arg "Tree_assign: DAG portion is not a forest"

(* [g]'s own forest as a parent array. *)
let forest g =
  if not (Dfg.Graph.is_tree g) then not_a_forest ();
  Tree_kernel.parents (Dfg.Graph.csr_preds g)

(* The DP on the forest [parent], which is [g]'s own or its transpose's;
   the kernel reads the memory footprints from [g] either way. *)
let solve_on parent g table ~deadline =
  if deadline < 0 then None
  else if Dfg.Graph.num_nodes g = 0 then Some ([||], 0)
  else Tree_kernel.solve (Tree_kernel.of_table ~parent g table ~deadline)

let solve_with_cost g table ~deadline = solve_on (forest g) g table ~deadline

let solve g table ~deadline =
  Option.map fst (solve_with_cost g table ~deadline)

(* The transpose's forest gives each node its one zero-delay successor as
   its parent. *)
let solve_auto g table ~deadline =
  let parent =
    if Dfg.Graph.is_tree g then forest g
    else if Dfg.Graph.is_in_tree g then
      Tree_kernel.parents (Dfg.Graph.csr_succs g)
    else not_a_forest ()
  in
  solve_on parent g table ~deadline

let dp_row g table ~deadline ~node =
  Tree_kernel.dp_row
    (Tree_kernel.of_table ~parent:(forest g) g table ~deadline)
    ~node
