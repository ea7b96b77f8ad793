(* The list-based critical-path tree expansion that [Dfg.Expand.expand]
   replaced, kept as a differential-testing oracle: the flat DFS must give
   the same origin, copies, names, ops and edges, and raise
   [Dfg.Expand.Too_large] at the same bound. *)

let expand_reference ?(max_nodes = Dfg.Expand.default_max_nodes) g =
  let next_id = ref 0 in
  let rev_names = ref [] and rev_ops = ref [] and rev_origin = ref [] in
  let edges = ref [] in
  let fresh_copy v =
    let id = !next_id in
    if id >= max_nodes then raise (Dfg.Expand.Too_large max_nodes);
    incr next_id;
    rev_names := Dfg.Graph.name g v :: !rev_names;
    rev_ops := Dfg.Graph.op g v :: !rev_ops;
    rev_origin := v :: !rev_origin;
    id
  in
  (* Clone the subtree of zero-delay descendants reachable from [v]. The DAG
     portion is acyclic so this terminates; each call produces a fresh copy
     of the whole sub-DAG unfolded into a tree. *)
  let rec clone v =
    let id = fresh_copy v in
    Dfg.Graph.iter_dag_succs_sized g v (fun w size ->
        let child = clone w in
        edges := { Dfg.Graph.src = id; dst = child; delay = 0; size } :: !edges);
    id
  in
  Array.iter (fun r -> ignore (clone r)) (Dfg.Graph.roots_arr g);
  let names = Array.of_list (List.rev !rev_names) in
  let ops = Array.of_list (List.rev !rev_ops) in
  let origin = Array.of_list (List.rev !rev_origin) in
  let graph = Dfg.Graph.of_edges ~names ~ops (List.rev !edges) in
  let copies = Array.make (Dfg.Graph.num_nodes g) [] in
  for t = Array.length origin - 1 downto 0 do
    copies.(origin.(t)) <- t :: copies.(origin.(t))
  done;
  { Dfg.Expand.graph; origin; copies }
