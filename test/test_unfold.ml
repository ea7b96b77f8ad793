open Helpers

let correlator () =
  graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 2) ]

let test_node_and_edge_counts () =
  let g = correlator () in
  let u = Dfg.Unfold.unfold g ~factor:3 in
  Alcotest.(check int) "3x nodes" 9 (Dfg.Graph.num_nodes u);
  Alcotest.(check int) "3x edges" 9 (Dfg.Graph.num_edges u);
  Alcotest.(check string) "copy naming" "v0#0" (Dfg.Graph.name u 0);
  Alcotest.(check string) "copy naming" "v1#2" (Dfg.Graph.name u 5)

let test_factor_one_identity () =
  let g = correlator () in
  let u = Dfg.Unfold.unfold g ~factor:1 in
  Alcotest.(check int) "same nodes" 3 (Dfg.Graph.num_nodes u);
  let delays gr =
    List.sort compare
      (List.map (fun { Dfg.Graph.delay; _ } -> delay) (Dfg.Graph.edges gr))
  in
  Alcotest.(check (list int)) "same delays" (delays g) (delays u)

let test_invalid_factor () =
  Alcotest.check_raises "factor 0" (Invalid_argument "Unfold.unfold: factor < 1")
    (fun () -> ignore (Dfg.Unfold.unfold (correlator ()) ~factor:0))

let total_delay gr =
  List.fold_left (fun acc { Dfg.Graph.delay; _ } -> acc + delay) 0
    (Dfg.Graph.edges gr)

let test_total_delay_preserved () =
  (* per original edge with delay d, the f copies carry d delays in total *)
  let g = correlator () in
  for f = 1 to 5 do
    let u = Dfg.Unfold.unfold g ~factor:f in
    Alcotest.(check int)
      (Printf.sprintf "factor %d" f)
      (total_delay g) (total_delay u)
  done

let test_unfolded_graph_valid_and_acyclic_portion () =
  (* constructing via Graph.of_edges already validates zero-delay
     acyclicity; exercise a few benchmarks *)
  List.iter
    (fun (name, g) ->
      for f = 2 to 3 do
        let u = Dfg.Unfold.unfold g ~factor:f in
        Alcotest.(check int)
          (Printf.sprintf "%s x%d node count" name f)
          (f * Dfg.Graph.num_nodes g)
          (Dfg.Graph.num_nodes u)
      done)
    (Workloads.Filters.all ())

let test_cycle_period_per_iteration_improves () =
  (* correlator with unit times: period 3 for 1 iteration; unfolded by 2,
     the super-iteration runs 2 iterations in less than 2x the time *)
  let g = correlator () in
  let time _ = 1 in
  let p1 = Dfg.Cyclic.cycle_period g ~time in
  let u = Dfg.Unfold.unfold g ~factor:2 in
  let p2 = Dfg.Cyclic.cycle_period u ~time in
  Alcotest.(check bool)
    (Printf.sprintf "p2=%d <= 2*p1=%d" p2 (2 * p1))
    true
    (p2 <= 2 * p1);
  (* and the per-iteration period is bounded below by the iteration bound *)
  let bound = Dfg.Cyclic.iteration_bound g ~time in
  Alcotest.(check bool) "above iteration bound" true
    (float_of_int p2 /. 2.0 >= bound -. 1e-6)

let test_unfold_then_assign () =
  (* the unfolded DFG is a normal assignment instance: project the table
     and synthesize *)
  let g = Workloads.Filters.lattice ~stages:2 in
  let rng = Workloads.Prng.create 5 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let f = 2 in
  let u = Dfg.Unfold.unfold g ~factor:f in
  let origin = Array.init (Dfg.Graph.num_nodes g * f) (fun i -> i / f) in
  let utbl = Oracle.Tables.project tbl ~origin in
  let deadline = Assign.Assignment.min_makespan u utbl + 4 in
  match Assign.Dfg_assign.repeat u utbl ~deadline with
  | None -> Alcotest.fail "unfolded instance feasible"
  | Some a ->
      Alcotest.(check bool) "feasible" true
        (Assign.Assignment.is_feasible u utbl a ~deadline)

let test_inter_iteration_edge_wraps () =
  (* edge with delay 1 unfolded by 2: copy 0 -> copy 1 intra (delay 0),
     copy 1 -> copy 0 with delay 1 *)
  let g = graph_with_delays 2 [ (0, 1, 1) ] in
  let u = Dfg.Unfold.unfold g ~factor:2 in
  let find src dst =
    List.find_map
      (fun { Dfg.Graph.src = s; dst = d; delay; _ } ->
        if s = src && d = dst then Some delay else None)
      (Dfg.Graph.edges u)
  in
  (* node ids: v0#0=0 v0#1=1 v1#0=2 v1#1=3 *)
  Alcotest.(check (option int)) "v0#0 -> v1#1 intra" (Some 0) (find 0 3);
  Alcotest.(check (option int)) "v0#1 -> v1#0 wraps" (Some 1) (find 1 2)

let () =
  Alcotest.run "dfg.unfold"
    [
      ( "unfold",
        [
          quick "counts and naming" test_node_and_edge_counts;
          quick "factor 1 is identity" test_factor_one_identity;
          quick "invalid factor" test_invalid_factor;
          quick "total delay preserved" test_total_delay_preserved;
          quick "benchmarks unfold cleanly" test_unfolded_graph_valid_and_acyclic_portion;
          quick "per-iteration period improves" test_cycle_period_per_iteration_improves;
          quick "unfold then assign" test_unfold_then_assign;
          quick "delay wrap-around" test_inter_iteration_edge_wraps;
        ] );
    ]
