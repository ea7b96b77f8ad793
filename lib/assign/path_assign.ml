(* Path_Assign is Tree_Assign on a chain. On the reversed chain
   v_(n-1) -> ... -> v_0, node v_i's one child is v_(i-1), so the tree DP's
   row for v_i is the prefix DP's row X_i, and the traceback from the root
   v_(n-1) at the full budget is the prefix DP's walk back. The chain
   carries no data sizes, so no memory mask applies. *)
let kernel table ~deadline =
  let n = Fulib.Table.num_nodes table in
  let chain =
    Dfg.Graph.of_edges ~names:(Array.make n "")
      (List.init (max 0 (n - 1)) (fun i ->
           { Dfg.Graph.src = i + 1; dst = i; delay = 0; size = 0 }))
  in
  Tree_kernel.of_table chain table ~deadline

let solve_with_cost table ~deadline =
  if deadline < 0 then None
  else if Fulib.Table.num_nodes table = 0 then Some ([||], 0)
  else Tree_kernel.solve (kernel table ~deadline)

let solve table ~deadline =
  Option.map fst (solve_with_cost table ~deadline)

let cost_profile table ~deadline =
  let n = Fulib.Table.num_nodes table and deadline = max deadline 0 in
  if n = 0 then Array.make (deadline + 1) 0
  else Tree_kernel.dp_row (kernel table ~deadline) ~node:(n - 1)

(* Extract the unique path order of a graph that is a simple path: one root,
   each node at most one zero-delay child. *)
let path_order g =
  let n = Dfg.Graph.num_nodes g in
  match Dfg.Graph.roots g with
  | [ root ] when n > 0 ->
      let rec follow v acc len =
        match Dfg.Graph.dag_succs g v with
        | [] -> (List.rev (v :: acc), len + 1)
        | [ w ] -> follow w (v :: acc) (len + 1)
        | _ :: _ :: _ -> invalid_arg "Path_assign: node with several children"
      in
      let order, len = follow root [] 0 in
      if len <> n then invalid_arg "Path_assign: graph is not connected path";
      order
  | [] when n = 0 -> []
  | _ -> invalid_arg "Path_assign: graph does not have exactly one root"

let solve_graph g table ~deadline =
  let order = Array.of_list (path_order g) in
  let reordered =
    Fulib.Table.project table ~origin:order
  in
  match solve_with_cost reordered ~deadline with
  | None -> None
  | Some (a, _) ->
      let out = Array.make (Dfg.Graph.num_nodes g) 0 in
      Array.iteri (fun i v -> out.(v) <- a.(i)) order;
      Some out
