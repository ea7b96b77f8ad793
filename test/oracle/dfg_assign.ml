(* The full-re-solve [DFG_Assign_Repeat] (paper §5.3) that the incremental
   kernel replaced, kept as a differential-testing oracle and benchmark
   baseline: [Assign.Dfg_assign.repeat] must return the same assignment.
   The tree is the smaller of the list-based expansions ([Expand]) of [g]
   and of its transpose, and each duplicated node costs a fresh list-based
   DP ([Tree_assign]) over a freshly pinned table, so no library
   expansion, tree choice or kernel is involved. The helpers below are
   copies of the library's, so the oracle fixes nodes in the same order
   and breaks ties the same way. *)

(* Among the tree copies of original node [v], pick the type with minimum
   execution time; break ties toward lower cost, then lower type index, so
   the choice is deterministic. [type_of c] is copy [c]'s tree type. *)
let min_time_choice table type_of copies v =
  let better t t' =
    let time ty = Fulib.Table.time table ~node:v ~ftype:ty in
    let cost ty = Fulib.Table.cost table ~node:v ~ftype:ty in
    if time t' < time t then t'
    else if time t' = time t && (cost t' < cost t || (cost t' = cost t && t' < t))
    then t'
    else t
  in
  match copies with
  | [] -> invalid_arg "Dfg_assign: node without copies"
  | c :: rest ->
      List.fold_left (fun acc c' -> better acc (type_of c')) (type_of c) rest

(* Fill the nodes of [a] not fixed yet ([-1]) from the tree assignment
   [ta]: a single copy's type, else the min-time choice among the copies. *)
let complete table tree ta a =
  Array.iteri
    (fun v copies ->
      if a.(v) < 0 then
        match copies with
        | [ c ] -> a.(v) <- ta.(c)
        | copies -> a.(v) <- min_time_choice table (Array.get ta) copies v)
    tree.Dfg.Expand.copies

(* [table] with [node]'s row collapsed to [ftype]'s time and cost, so any
   type chosen for [node] is equivalent to [ftype]: how the Repeat fixing
   step pins a duplicated node's copies. *)
let pin table ~node ~ftype =
  let rows cell =
    Array.init (Fulib.Table.num_nodes table) (fun v ->
        Array.init (Fulib.Table.num_types table) (fun t ->
            cell table ~node:v ~ftype:(if v = node then ftype else t)))
  in
  Fulib.Table.make ~library:(Fulib.Table.library table)
    ~time:(rows Fulib.Table.time) ~cost:(rows Fulib.Table.cost)

(* Greatest copy count first; stable on ties (ascending id). *)
let by_copies tree dups =
  List.stable_sort
    (fun u v ->
      compare (Dfg.Expand.copy_count tree v) (Dfg.Expand.copy_count tree u))
    dups

(* The smaller of the two expansions, ties toward [g]'s own; building
   both raises [Too_large] when either exceeds [max_nodes]. *)
let smaller_tree ?max_nodes g =
  let forward = Expand.expand_reference ?max_nodes g in
  let transposed =
    Expand.expand_reference ?max_nodes (Transpose.transpose g)
  in
  if Array.length forward.origin <= Array.length transposed.origin then
    forward
  else transposed

let repeat_reference ?max_nodes g table ~deadline =
  let tree = smaller_tree ?max_nodes g in
  let dups = by_copies tree (Dfg.Expand.duplicated_nodes tree) in
  let n = Dfg.Graph.num_nodes g in
  let a = Array.make n (-1) in
  let graph = Expand.tree_graph g tree in
  let solve_tree tbl =
    Option.map fst (Tree_assign.solve_with_cost_reference graph tbl ~deadline)
  in
  let exception Infeasible in
  try
    let tree_table =
      ref (Tables.project table ~origin:tree.Dfg.Expand.origin)
    in
    List.iter
      (fun v ->
        match solve_tree !tree_table with
        | None -> raise Infeasible
        | Some ta ->
            let t =
              min_time_choice table (Array.get ta) tree.Dfg.Expand.copies.(v) v
            in
            a.(v) <- t;
            List.iter
              (fun copy ->
                tree_table := pin !tree_table ~node:copy ~ftype:t)
              tree.Dfg.Expand.copies.(v))
      dups;
    match solve_tree !tree_table with
    | None -> raise Infeasible
    | Some ta ->
        complete table tree ta a;
        Some a
  with Infeasible -> None
