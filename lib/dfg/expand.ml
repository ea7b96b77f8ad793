type tree = {
  graph : Graph.t;
  origin : int array;
  copies : int list array;
}

exception Too_large of int

let default_max_nodes = 200_000

let expand ?(max_nodes = default_max_nodes) g =
  let next_id = ref 0 in
  let rev_names = ref [] and rev_ops = ref [] and rev_origin = ref [] in
  let edges = ref [] in
  let fresh_copy v =
    let id = !next_id in
    if id >= max_nodes then raise (Too_large max_nodes);
    incr next_id;
    rev_names := Graph.name g v :: !rev_names;
    rev_ops := Graph.op g v :: !rev_ops;
    rev_origin := v :: !rev_origin;
    id
  in
  (* Clone the subtree of zero-delay descendants reachable from [v]. The DAG
     portion is acyclic so this terminates; each call produces a fresh copy
     of the whole sub-DAG unfolded into a tree. *)
  let rec clone v =
    let id = fresh_copy v in
    Graph.iter_dag_succs_sized g v (fun w size ->
        let child = clone w in
        edges := { Graph.src = id; dst = child; delay = 0; size } :: !edges);
    id
  in
  Array.iter (fun r -> ignore (clone r)) (Graph.roots_arr g);
  let names = Array.of_list (List.rev !rev_names) in
  let ops = Array.of_list (List.rev !rev_ops) in
  let origin = Array.of_list (List.rev !rev_origin) in
  let graph = Graph.of_edges ~names ~ops (List.rev !edges) in
  let copies = Array.make (Graph.num_nodes g) [] in
  for t = Array.length origin - 1 downto 0 do
    copies.(origin.(t)) <- t :: copies.(origin.(t))
  done;
  { graph; origin; copies }

(* A node has one copy per root-to-node path (forward) or per node-to-leaf
   path (transposed: the roots of [Transpose.transpose g] are [g]'s
   leaves). Both counts are one pass over the topological order, forward
   and backward, with sums saturating at [max_nodes + 1] so exponential
   path counts neither overflow nor matter. *)
let tree_sizes ~max_nodes g =
  let cap =
    if max_nodes >= max_int - 1 then max_int else Int.max 1 (max_nodes + 1)
  in
  let add x y =
    let s = x + y in
    if s > cap || s < 0 then cap else s
  in
  let n = Graph.num_nodes g in
  let topo = Graph.topo_arr g in
  (* [paths.(v)] is 1 when [v] has no neighbours in the CSR view
     [(off, tgt)], else the sum of theirs; [visit] orders the topological
     sweep so that neighbours come first. *)
  let count (off, tgt) visit =
    let paths = Array.make n 0 and total = ref 0 in
    for i = 0 to n - 1 do
      let v = topo.(visit i) in
      let c = ref (if off.(v + 1) = off.(v) then 1 else 0) in
      for j = off.(v) to off.(v + 1) - 1 do
        c := add !c paths.(tgt.(j))
      done;
      paths.(v) <- !c;
      total := add !total !c
    done;
    !total
  in
  ( count (Graph.csr_preds g) Fun.id,
    count (Graph.csr_succs g) (fun i -> n - 1 - i) )

let copy_count t v = List.length t.copies.(v)

let duplicated_nodes t =
  let rec collect v acc =
    if v < 0 then acc
    else collect (v - 1) (if copy_count t v > 1 then v :: acc else acc)
  in
  collect (Array.length t.copies - 1) []
