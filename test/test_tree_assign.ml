open Helpers

(* The shape of the paper's Figure 6 tree: v0 -> v1, v0 -> v2, v2 -> v3. *)
let fig6_graph () = graph 4 [ (0, 1); (0, 2); (2, 3) ]

let fig6_table () =
  table lib3
    [
      ([ 1; 2; 3 ], [ 10; 6; 2 ]);
      ([ 1; 2; 4 ], [ 12; 7; 3 ]);
      ([ 2; 3; 5 ], [ 9; 4; 1 ]);
      ([ 1; 3; 4 ], [ 8; 5; 2 ]);
    ]

let test_optimal_matches_bruteforce () =
  let g = fig6_graph () and tbl = fig6_table () in
  for deadline = 0 to 14 do
    against_oracle ~exact:true
      (Printf.sprintf "Tree_assign T=%d" deadline)
      g tbl ~deadline
      (Assign.Tree_assign.solve g tbl ~deadline)
  done

let test_path_special_case_agrees () =
  let tbl = fig6_table () in
  let g = path_graph 4 in
  for deadline = 5 to 16 do
    let tree = Assign.Tree_assign.solve_with_cost g tbl ~deadline in
    let path =
      Assign.Tree_assign.solve_with_cost (Oracle.Path_assign.chain tbl) tbl
        ~deadline
    in
    match (tree, path) with
    | None, None -> ()
    | Some (_, c), Some (_, c') -> Alcotest.(check int) "same optimum" c' c
    | _ -> Alcotest.fail "feasibility mismatch"
  done

let test_forest () =
  (* two independent single nodes: budgets do not interact, costs add *)
  let g = graph 2 [] in
  let tbl = table lib2 [ ([ 1; 4 ], [ 9; 1 ]); ([ 2; 3 ], [ 7; 2 ]) ] in
  (match Assign.Tree_assign.solve_with_cost g tbl ~deadline:4 with
  | Some (a, c) ->
      Alcotest.(check (array int)) "both cheap" [| 1; 1 |] a;
      Alcotest.(check int) "cost" 3 c
  | None -> Alcotest.fail "feasible");
  match Assign.Tree_assign.solve_with_cost g tbl ~deadline:3 with
  | Some (a, c) ->
      Alcotest.(check (array int)) "first must speed up" [| 0; 1 |] a;
      Alcotest.(check int) "cost" 11 c
  | None -> Alcotest.fail "feasible"

let test_sibling_budgets_independent () =
  (* root with two leaf children: a slow choice in one branch must not
     constrain the other branch *)
  let g = graph 3 [ (0, 1); (0, 2) ] in
  let tbl =
    table lib2
      [ ([ 1; 2 ], [ 5; 1 ]); ([ 1; 6 ], [ 9; 1 ]); ([ 1; 2 ], [ 6; 2 ]) ]
  in
  (* deadline 7: the cheapest combination keeps the root fast so that BOTH
     children may be slow-and-cheap (5+1+2 = 8 beats making v1 fast,
     1+9+2 = 12); v2's slow choice must not be blocked by v1's branch *)
  match Assign.Tree_assign.solve g tbl ~deadline:7 with
  | None -> Alcotest.fail "feasible"
  | Some a -> Alcotest.(check (array int)) "root fast, leaves cheap" [| 0; 1; 1 |] a

let test_rejects_non_tree () =
  let g = diamond () in
  let tbl = fig6_table () in
  Alcotest.check_raises "diamond rejected"
    (Invalid_argument "Tree_assign: DAG portion is not a forest") (fun () ->
      ignore (Assign.Tree_assign.solve g tbl ~deadline:10))

let test_solve_auto_on_in_tree () =
  (* reduction tree: 2 roots joining into 1 leaf — a tree only after
     transposition *)
  let g = graph 3 [ (0, 2); (1, 2) ] in
  let tbl =
    table lib2 [ ([ 1; 3 ], [ 8; 1 ]); ([ 1; 2 ], [ 7; 2 ]); ([ 1; 4 ], [ 9; 1 ]) ]
  in
  for deadline = 2 to 8 do
    match Assign.Tree_assign.solve_auto g tbl ~deadline with
    | None ->
        Alcotest.(check bool)
          "oracle also infeasible" true
          (brute_force g tbl ~deadline = None)
    | Some (a, c) ->
        check_feasible g tbl ~deadline (Some a);
        let opt =
          match brute_force g tbl ~deadline with
          | Some (_, c') -> c'
          | None -> Alcotest.fail "oracle disagrees"
        in
        Alcotest.(check int) (Printf.sprintf "optimal at T=%d" deadline) opt c
  done

let test_dp_row_monotone_and_traced () =
  let g = fig6_graph () and tbl = fig6_table () in
  let row = Assign.Tree_assign.dp_row g tbl ~deadline:12 ~node:0 in
  for j = 1 to 12 do
    Alcotest.(check bool) "monotone" true (row.(j) <= row.(j - 1))
  done;
  (* X_root(T) equals the overall optimum for a single-root tree *)
  match Assign.Tree_assign.solve_with_cost g tbl ~deadline:12 with
  | Some (_, c) -> Alcotest.(check int) "root row at T" c row.(12)
  | None -> Alcotest.fail "feasible"

let test_deep_tree_scaling () =
  (* binary out-tree of depth 7 (255 nodes): solvable quickly and optimal
     cost must not exceed the all-cheapest-cost lower bound logic *)
  let depth = 7 in
  let n = (1 lsl (depth + 1)) - 1 in
  let edges =
    List.concat
      (List.init ((n - 1) / 2) (fun i -> [ (i, (2 * i) + 1); (i, (2 * i) + 2) ]))
  in
  let g = graph n edges in
  let rng = Workloads.Prng.create 7 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin * 2 in
  match Assign.Tree_assign.solve_with_cost g tbl ~deadline with
  | None -> Alcotest.fail "feasible"
  | Some (a, c) ->
      check_feasible g tbl ~deadline (Some a);
      let cheapest_possible =
        Assign.Assignment.total_cost tbl (Assign.Assignment.all_cheapest tbl)
      in
      Alcotest.(check bool) "cost >= sum of per-node minima" true (c >= cheapest_possible)

let test_zero_deadline_empty () =
  let g = graph 0 [] in
  let tbl = table lib2 [] in
  match Assign.Tree_assign.solve_with_cost g tbl ~deadline:0 with
  | Some (a, 0) -> Alcotest.(check int) "empty" 0 (Array.length a)
  | _ -> Alcotest.fail "empty tree is trivially feasible"

(* An in-tree is solved on its transpose, but memory footprints are the
   original graph's: a and b each send 5 units to c, so c's footprint is 0
   and it fits the slow type's capacity of 6. The optimum puts a and b on
   the fast type and c on the slow one, for cost 21; reading footprints
   from the transpose (c's would be 10) forces c fast, for cost 30. *)
let test_in_tree_footprints_from_original () =
  let g =
    Dfg.Graph.of_edges ~names:[| "a"; "b"; "c" |]
      [
        { Dfg.Graph.src = 0; dst = 2; delay = 0; size = 5 };
        { src = 1; dst = 2; delay = 0; size = 5 };
      ]
  in
  let tbl =
    Fulib.Table.with_mem_capacity
      (table lib2
         [ ([ 1; 5 ], [ 10; 1 ]); ([ 1; 5 ], [ 10; 1 ]); ([ 1; 2 ], [ 10; 1 ]) ])
      [| 100; 6 |]
  in
  let deadline = 3 in
  List.iter
    (fun algorithm ->
      let name = Assign.Solve.name algorithm in
      (match Assign.Solve.run algorithm g tbl ~deadline with
      | Assign.Solve.Feasible a ->
          Alcotest.(check int)
            (name ^ " via Solve.run") 21
            (Assign.Assignment.total_cost tbl a)
      | _ -> Alcotest.failf "%s: Solve.run found no assignment" name);
      match
        (Core.Synthesis.solve (Core.Synthesis.request ~algorithm ~deadline g tbl))
          .Core.Synthesis.result
      with
      | Some r ->
          Alcotest.(check int) (name ^ " via Synthesis.solve") 21 r.Core.Synthesis.cost
      | None -> Alcotest.failf "%s: Synthesis.solve found no result" name)
    Assign.Solve.[ Tree; Once; Repeat; Exact ]

let () =
  Alcotest.run "assign.tree"
    [
      ( "tree_assign",
        [
          quick "optimal vs brute force" test_optimal_matches_bruteforce;
          quick "path special case" test_path_special_case_agrees;
          quick "forest" test_forest;
          quick "sibling budgets independent" test_sibling_budgets_independent;
          quick "rejects non-tree" test_rejects_non_tree;
          quick "solve_auto on in-tree" test_solve_auto_on_in_tree;
          quick "dp row" test_dp_row_monotone_and_traced;
          quick "255-node tree" test_deep_tree_scaling;
          quick "empty" test_zero_deadline_empty;
          quick "in-tree footprints from the original graph"
            test_in_tree_footprints_from_original;
        ] );
    ]
