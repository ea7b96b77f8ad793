open Helpers

let diamond_table () =
  table lib3
    [
      ([ 1; 2; 3 ], [ 10; 6; 2 ]);
      ([ 1; 2; 4 ], [ 12; 7; 3 ]);
      ([ 2; 3; 5 ], [ 9; 4; 1 ]);
      ([ 1; 3; 4 ], [ 8; 5; 2 ]);
    ]

let test_feasible_on_diamond () =
  let g = diamond () and tbl = diamond_table () in
  for deadline = 3 to 14 do
    check_feasible g tbl ~deadline (Assign.Dfg_assign.once g tbl ~deadline);
    check_feasible g tbl ~deadline (Assign.Dfg_assign.repeat g tbl ~deadline)
  done

let test_infeasible_reported () =
  let g = diamond () and tbl = diamond_table () in
  let tmin = Assign.Assignment.min_makespan g tbl in
  Alcotest.(check bool) "once: below tmin" true
    (Assign.Dfg_assign.once g tbl ~deadline:(tmin - 1) = None);
  Alcotest.(check bool) "repeat: below tmin" true
    (Assign.Dfg_assign.repeat g tbl ~deadline:(tmin - 1) = None);
  Alcotest.(check bool) "once feasible at tmin" true
    (Assign.Dfg_assign.once g tbl ~deadline:tmin <> None)

let test_tree_input_gives_optimum () =
  (* on a tree there are no duplicated nodes: both heuristics must return
     the Tree_assign optimum *)
  let g = graph 4 [ (0, 1); (0, 2); (2, 3) ] in
  let tbl = diamond_table () in
  for deadline = 4 to 14 do
    let opt =
      match Assign.Tree_assign.solve_with_cost g tbl ~deadline with
      | Some (_, c) -> Some c
      | None -> None
    in
    let cost_of f =
      Option.map (Assign.Assignment.total_cost tbl) (f g tbl ~deadline)
    in
    Alcotest.(check (option int))
      (Printf.sprintf "once optimal at T=%d" deadline)
      opt
      (cost_of (fun g tbl ~deadline -> Assign.Dfg_assign.once g tbl ~deadline));
    Alcotest.(check (option int))
      (Printf.sprintf "repeat optimal at T=%d" deadline)
      opt
      (cost_of (fun g tbl ~deadline -> Assign.Dfg_assign.repeat g tbl ~deadline))
  done

let test_repeat_never_worse_than_once_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 11 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.iter
        (fun deadline ->
          let cost f = Option.map (Assign.Assignment.total_cost tbl) f in
          let once = cost (Assign.Dfg_assign.once g tbl ~deadline) in
          let repeat = cost (Assign.Dfg_assign.repeat g tbl ~deadline) in
          match (once, repeat) with
          | Some o, Some r ->
              if r > o then
                Alcotest.failf "%s T=%d: repeat %d worse than once %d" name
                  deadline r o
          | None, None -> ()
          | _ -> Alcotest.failf "%s T=%d: feasibility mismatch" name deadline)
        [ tmin; tmin + (tmin / 4); tmin * 2 ])
    (Workloads.Filters.dags ())

let test_choose_tree_picks_smaller () =
  (* fan-in join: forward expansion duplicates the join per root, transposed
     is exactly the node count *)
  let g = graph 4 [ (0, 3); (1, 3); (2, 3) ] in
  let orientation, tree = Assign.Dfg_assign.choose_tree g in
  Alcotest.(check bool) "transposed chosen" true
    (orientation = Assign.Dfg_assign.Transposed);
  Alcotest.(check int) "4 nodes" 4 (Array.length tree.Dfg.Expand.origin)

let test_once_oriented_both_feasible () =
  let g = diamond () and tbl = diamond_table () in
  let deadline = 9 in
  List.iter
    (fun o ->
      check_feasible g tbl ~deadline
        (Assign.Dfg_assign.once_oriented o g tbl ~deadline))
    [ Assign.Dfg_assign.Forward; Assign.Dfg_assign.Transposed ]

let test_repeat_orders_all_feasible () =
  let g = Workloads.Filters.elliptic () in
  let rng = Workloads.Prng.create 3 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin + (tmin / 3) in
  List.iter
    (fun order ->
      check_feasible g tbl ~deadline
        (Assign.Dfg_assign.repeat_with_order ~order g tbl ~deadline))
    [ `By_copies; `By_id; `Reverse ]

let test_heuristics_near_optimal_small_dags () =
  (* on small random DAGs the heuristics stay within 2x of the exact
     optimum (loose sanity band; in practice they are much closer) *)
  let rng = Workloads.Prng.create 99 in
  for trial = 1 to 25 do
    let g = Workloads.Random_dfg.random_dag rng ~n:7 ~extra_edges:3 in
    let tbl =
      Oracle.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:7
        ~max_time:4 ~max_cost:9
    in
    let tmin = Assign.Assignment.min_makespan g tbl in
    let deadline = tmin + Workloads.Prng.int rng 6 in
    match Assign.Exact.solve g tbl ~deadline with
    | None -> Alcotest.failf "trial %d: tmin-based deadline infeasible" trial
    | Some (_, opt) ->
        List.iter
          (fun (name, res) ->
            match res with
            | None -> Alcotest.failf "trial %d: %s infeasible" trial name
            | Some a ->
                check_feasible g tbl ~deadline (Some a);
                let c = Assign.Assignment.total_cost tbl a in
                if c < opt then
                  Alcotest.failf "trial %d: %s beats optimum" trial name;
                if opt > 0 && c > 2 * opt then
                  Alcotest.failf "trial %d: %s cost %d too far from optimum %d"
                    trial name c opt)
          [
            ("once", Assign.Dfg_assign.once g tbl ~deadline);
            ("repeat", Assign.Dfg_assign.repeat g tbl ~deadline);
          ]
  done

let () =
  Alcotest.run "assign.dfg"
    [
      ( "dfg_assign",
        [
          quick "feasible on diamond" test_feasible_on_diamond;
          quick "infeasible reported" test_infeasible_reported;
          quick "tree input -> optimum" test_tree_input_gives_optimum;
          quick "repeat <= once on benchmarks" test_repeat_never_worse_than_once_on_benchmarks;
          quick "choose_tree picks smaller" test_choose_tree_picks_smaller;
          quick "both orientations feasible" test_once_oriented_both_feasible;
          quick "all fixing orders feasible" test_repeat_orders_all_feasible;
          quick "near-optimal on small DAGs" test_heuristics_near_optimal_small_dags;
        ] );
    ]
