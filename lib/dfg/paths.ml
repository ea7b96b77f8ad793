(* Children first: the topological order, walked backwards. *)
let longest_from g ~weight =
  let n = Graph.num_nodes g in
  let best = Array.make n 0 in
  let topo = Graph.topo_arr g in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let tail =
      Graph.fold_dag_succs g v ~init:0 ~f:(fun acc w -> Int.max acc best.(w))
    in
    let wv = weight v in
    if wv < 0 then invalid_arg "Paths: negative weight";
    best.(v) <- wv + tail
  done;
  best

let longest_to g ~weight =
  let n = Graph.num_nodes g in
  let best = Array.make n 0 in
  Array.iter
    (fun v ->
      let head =
        Graph.fold_dag_preds g v ~init:0 ~f:(fun acc p -> Int.max acc best.(p))
      in
      let wv = weight v in
      if wv < 0 then invalid_arg "Paths: negative weight";
      best.(v) <- wv + head)
    (Graph.topo_arr g);
  best

let longest_path g ~weight =
  let from = longest_from g ~weight in
  Array.fold_left (fun acc r -> Int.max acc from.(r)) 0 (Graph.roots_arr g)

let critical_paths g =
  let rec extend v =
    match Graph.dag_succs g v with
    | [] -> [ [ v ] ]
    | succs ->
        List.concat_map (fun w -> List.map (fun p -> v :: p) (extend w)) succs
  in
  List.concat_map extend (Graph.roots g)

let count_critical_paths g =
  let n = Graph.num_nodes g in
  let count = Array.make n 0 in
  let topo = Graph.topo_arr g in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    count.(v) <-
      (if Graph.dag_out_degree g v = 0 then 1
       else Graph.fold_dag_succs g v ~init:0 ~f:(fun acc w -> acc + count.(w)))
  done;
  Array.fold_left (fun acc r -> acc + count.(r)) 0 (Graph.roots_arr g)
