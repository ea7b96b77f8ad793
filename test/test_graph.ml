open Helpers

let test_empty () =
  let g = graph 0 [] in
  Alcotest.(check int) "no nodes" 0 (Dfg.Graph.num_nodes g);
  Alcotest.(check int) "no edges" 0 (Dfg.Graph.num_edges g);
  Alcotest.(check (list int)) "no roots" [] (Dfg.Graph.roots g);
  Alcotest.(check bool) "empty is a tree" true (Dfg.Graph.is_tree g)

let test_single_node () =
  let g = graph 1 [] in
  Alcotest.(check (list int)) "root" [ 0 ] (Dfg.Graph.roots g);
  Alcotest.(check (list int)) "leaf" [ 0 ] (Array.to_list (Dfg.Graph.leaves_arr g));
  Alcotest.(check bool) "tree" true (Dfg.Graph.is_tree g)

let test_diamond_degrees () =
  let g = diamond () in
  Alcotest.(check int) "out degree of fork" 2 (Dfg.Graph.dag_out_degree g 0);
  Alcotest.(check int) "in degree of join" 2 (Dfg.Graph.dag_in_degree g 3);
  Alcotest.(check (list int)) "roots" [ 0 ] (Dfg.Graph.roots g);
  Alcotest.(check (list int)) "leaves" [ 3 ] (Array.to_list (Dfg.Graph.leaves_arr g));
  Alcotest.(check bool) "diamond is not a tree" false (Dfg.Graph.is_tree g);
  Alcotest.(check bool) "nor an in-tree" false (Dfg.Graph.is_in_tree g)

let test_succs_preds_consistency () =
  let g = diamond () in
  for v = 0 to 3 do
    List.iter
      (fun (w, d) ->
        Alcotest.(check bool)
          (Printf.sprintf "edge %d->%d mirrored in preds" v w)
          true
          (List.mem (v, d) (Dfg.Graph.preds g w)))
      (Dfg.Graph.succs g v)
  done

let test_edges_roundtrip () =
  let edges = [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let g = graph 4 edges in
  let got =
    List.map (fun { Dfg.Graph.src; dst; _ } -> (src, dst)) (Dfg.Graph.edges g)
  in
  Alcotest.(check (list (pair int int)))
    "edges preserved" (List.sort compare edges) (List.sort compare got)

let test_delay_edges_ignored_by_dag () =
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 1) ] in
  Alcotest.(check (list int)) "root ignores delayed edge" [ 0 ] (Dfg.Graph.roots g);
  Alcotest.(check (list int)) "dag succs of v2" [] (Dfg.Graph.dag_succs g 2);
  Alcotest.(check int) "full succs of v2" 1 (List.length (Dfg.Graph.succs g 2))

let test_zero_delay_self_loop_rejected () =
  Alcotest.check_raises "self loop"
    (Invalid_argument "Graph.of_edges: zero-delay self-loop") (fun () ->
      ignore (graph 1 [ (0, 0) ]))

let test_delayed_self_loop_allowed () =
  let g = graph_with_delays 1 [ (0, 0, 2) ] in
  Alcotest.(check int) "one edge" 1 (Dfg.Graph.num_edges g)

let test_cycle_rejected () =
  Alcotest.check_raises "zero-delay cycle"
    (Invalid_argument "Graph.of_edges: zero-delay subgraph contains a cycle")
    (fun () -> ignore (graph 3 [ (0, 1); (1, 2); (2, 0) ]))

let test_cycle_with_delay_allowed () =
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 3) ] in
  Alcotest.(check int) "nodes" 3 (Dfg.Graph.num_nodes g)

let test_out_of_range_rejected () =
  Alcotest.check_raises "bad node"
    (Invalid_argument "Graph.of_edges: node 5 out of range") (fun () ->
      ignore (graph 3 [ (0, 5) ]));
  (* Edges are checked in order, each fully, and all before the cycle
     check: the first bad edge is named, its source before its target. *)
  Alcotest.check_raises "first bad edge named"
    (Invalid_argument "Graph.of_edges: node 7 out of range") (fun () ->
      ignore (graph_with_delays 3 [ (0, 1, 0); (1, 0, 0); (7, 9, 0); (0, 2, -1) ]));
  Alcotest.check_raises "of_edge_arrays, the same order"
    (Invalid_argument "Graph.of_edges: negative delay") (fun () ->
      ignore
        (Dfg.Graph.of_edge_arrays ~names:[| "a"; "b"; "c" |]
           ~ops:[| "op"; "op"; "op" |] ~src:[| 0; 1; 0; 2 |] ~dst:[| 1; 0; 2; 2 |]
           ~delay:[| 0; 0; -1; 0 |] ~size:[| 0; 0; 0; 0 |]))

let test_negative_delay_rejected () =
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Graph.of_edges: negative delay") (fun () ->
      ignore (graph_with_delays 2 [ (0, 1, -1) ]))

let test_ops_default_and_custom () =
  let g = graph 2 [ (0, 1) ] in
  Alcotest.(check string) "default op" "op" (Dfg.Graph.op g 0);
  let g = graph ~ops:[| "mul"; "add" |] 2 [ (0, 1) ] in
  Alcotest.(check string) "custom op" "mul" (Dfg.Graph.op g 0);
  Alcotest.(check string) "name" "v1" (Dfg.Graph.name g 1)

let test_builder_matches_of_edges () =
  let b = Dfg.Builder.create () in
  let x = Dfg.Builder.add_node b ~name:"x" ~op:"mul" in
  let y = Dfg.Builder.add_node b ~name:"y" ~op:"add" in
  Dfg.Builder.add_edge b ~src:x ~dst:y;
  Dfg.Builder.add_delay_edge b ~src:y ~dst:x ~delay:1;
  Alcotest.(check int) "builder count" 2 (Dfg.Builder.num_nodes b);
  let g = Dfg.Builder.finish b in
  Alcotest.(check int) "ids are dense" 0 x;
  Alcotest.(check string) "names preserved" "y" (Dfg.Graph.name g y);
  Alcotest.(check int) "both edges present" 2 (Dfg.Graph.num_edges g);
  (* the builder stays usable after finish *)
  let g2 = Dfg.Builder.finish b in
  Alcotest.(check int) "re-finish" 2 (Dfg.Graph.num_nodes g2)

let test_multi_root_forest () =
  let g = graph 4 [ (0, 2); (1, 3) ] in
  Alcotest.(check (list int)) "two roots" [ 0; 1 ] (Dfg.Graph.roots g);
  Alcotest.(check bool) "forest is a tree" true (Dfg.Graph.is_tree g);
  Alcotest.(check bool) "and an in-tree" true (Dfg.Graph.is_in_tree g);
  (* a fork is a tree and a join an in-tree, and only that; a delayed
     second successor does not count *)
  let fork = graph 3 [ (0, 1); (0, 2) ] and join = graph 3 [ (0, 2); (1, 2) ] in
  let delayed = graph_with_delays 3 [ (0, 1, 0); (0, 2, 1) ] in
  List.iter
    (fun (name, g, tree, in_tree) ->
      Alcotest.(check bool) (name ^ ": is_tree") tree (Dfg.Graph.is_tree g);
      Alcotest.(check bool) (name ^ ": is_in_tree") in_tree
        (Dfg.Graph.is_in_tree g);
      Alcotest.(check bool) (name ^ ": in-tree = tree of the transpose")
        (Dfg.Graph.is_tree (Oracle.Transpose.transpose g))
        (Dfg.Graph.is_in_tree g))
    [ ("fork", fork, true, false); ("join", join, false, true);
      ("delayed fork", delayed, true, true) ]

let () =
  Alcotest.run "dfg.graph"
    [
      ( "graph",
        [
          quick "empty graph" test_empty;
          quick "single node" test_single_node;
          quick "diamond degrees" test_diamond_degrees;
          quick "succs/preds mirror" test_succs_preds_consistency;
          quick "edges round-trip" test_edges_roundtrip;
          quick "delay edges off the DAG portion" test_delay_edges_ignored_by_dag;
          quick "zero-delay self loop rejected" test_zero_delay_self_loop_rejected;
          quick "delayed self loop allowed" test_delayed_self_loop_allowed;
          quick "zero-delay cycle rejected" test_cycle_rejected;
          quick "delayed cycle allowed" test_cycle_with_delay_allowed;
          quick "out-of-range node rejected" test_out_of_range_rejected;
          quick "negative delay rejected" test_negative_delay_rejected;
          quick "ops and names" test_ops_default_and_custom;
          quick "builder" test_builder_matches_of_edges;
          quick "multi-root forest" test_multi_root_forest;
        ] );
    ]
