(* The list-based critical-path tree expansion that [Dfg.Expand.expand]
   replaced, kept as a differential-testing oracle: the flat DFS must give
   the same parent, origin and copies arrays, and raise
   [Dfg.Expand.Too_large] at the same bound. *)

let expand_reference ?(max_nodes = Dfg.Expand.default_max_nodes) g =
  let next_id = ref 0 in
  let rev_origin = ref [] and rev_parent = ref [] in
  let fresh_copy v parent =
    let id = !next_id in
    if id >= max_nodes then raise (Dfg.Expand.Too_large max_nodes);
    incr next_id;
    rev_origin := v :: !rev_origin;
    rev_parent := parent :: !rev_parent;
    id
  in
  (* Clone the subtree of zero-delay descendants reachable from [v]. The DAG
     portion is acyclic so this terminates; each call produces a fresh copy
     of the whole sub-DAG unfolded into a tree. *)
  let rec clone v parent =
    let id = fresh_copy v parent in
    List.iter (fun w -> clone w id) (Dfg.Graph.dag_succs g v)
  in
  List.iter (fun r -> clone r (-1)) (Dfg.Graph.roots g);
  let origin = Array.of_list (List.rev !rev_origin) in
  let parent = Array.of_list (List.rev !rev_parent) in
  let copies = Array.make (Dfg.Graph.num_nodes g) [] in
  for t = Array.length origin - 1 downto 0 do
    copies.(origin.(t)) <- t :: copies.(origin.(t))
  done;
  { Dfg.Expand.parent; origin; copies }

(* The forest [t] of [g] as a graph over its copies, each named after its
   original node, for the tests and oracles that walk a tree as a
   [Dfg.Graph.t] (critical paths, the list-based DP). *)
let tree_graph g (t : Dfg.Expand.tree) =
  let names = Array.map (Dfg.Graph.name g) t.origin in
  let ops = Array.map (Dfg.Graph.op g) t.origin in
  let edges = ref [] in
  for i = Array.length t.parent - 1 downto 0 do
    if t.parent.(i) >= 0 then
      edges :=
        { Dfg.Graph.src = t.parent.(i); dst = i; delay = 0; size = 0 }
        :: !edges
  done;
  Dfg.Graph.of_edges ~names ~ops !edges
