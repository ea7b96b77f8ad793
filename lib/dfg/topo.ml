(* The order is computed once per graph by [Graph.of_edges] (Kahn's
   algorithm with a min-heap frontier keyed by node id, so ties break
   deterministically toward the smallest ready node — the same order the
   historical sorted-list frontier produced). These entry points only
   convert the cached array to lists for compatibility. *)

let sort g = Array.to_list (Graph.topo_arr g)

(* consing the topological order front to back lists it reversed *)
let post_order g =
  Array.fold_left (fun acc v -> v :: acc) [] (Graph.topo_arr g)

let levels g =
  let n = Graph.num_nodes g in
  let level = Array.make n 0 in
  Array.iter
    (fun v ->
      let parent_level =
        Graph.fold_dag_preds g v ~init:0 ~f:(fun acc p -> max acc (level.(p) + 1))
      in
      level.(v) <- parent_level)
    (Graph.topo_arr g);
  level
