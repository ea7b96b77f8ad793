let transpose g =
  let names = Dfg.Graph.names g in
  let ops = Array.init (Dfg.Graph.num_nodes g) (fun v -> Dfg.Graph.op g v) in
  let edges =
    List.map
      (fun { Dfg.Graph.src; dst; delay; size } ->
        { Dfg.Graph.src = dst; dst = src; delay; size })
      (Dfg.Graph.edges g)
  in
  Dfg.Graph.of_edges ~names ~ops edges
