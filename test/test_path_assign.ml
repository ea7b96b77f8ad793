open Helpers

(* Path_Assign is Tree_Assign on the reversed chain v_(n-1) -> ... -> v_0;
   its Figure-5 cost profile is the DP row of the chain's root v_(n-1). *)
let solve_with_cost tbl ~deadline =
  Assign.Tree_assign.solve_with_cost (Oracle.Path_assign.chain tbl) tbl ~deadline

let solve tbl ~deadline = Option.map fst (solve_with_cost tbl ~deadline)

let cost_profile tbl ~deadline =
  Assign.Tree_assign.dp_row (Oracle.Path_assign.chain tbl) tbl ~deadline
    ~node:(Fulib.Table.num_nodes tbl - 1)

(* Three nodes, three types: times rise and costs fall across types, like
   the paper's Figure 5 example. *)
let fig5_table () =
  table lib3
    [
      ([ 1; 2; 3 ], [ 10; 6; 2 ]);
      ([ 1; 2; 4 ], [ 12; 7; 3 ]);
      ([ 2; 3; 5 ], [ 9; 4; 1 ]);
    ]

let test_optimal_matches_bruteforce () =
  let tbl = fig5_table () in
  let g = path_graph 3 in
  for deadline = 0 to 14 do
    against_oracle ~exact:true
      (Printf.sprintf "Path_assign T=%d" deadline)
      g tbl ~deadline
      (solve tbl ~deadline)
  done

let test_tight_deadline_forces_fastest () =
  let tbl = fig5_table () in
  match solve tbl ~deadline:4 with
  | None -> Alcotest.fail "minimum makespan must be feasible"
  | Some a -> Alcotest.(check (array int)) "all fastest" [| 0; 0; 0 |] a

let test_loose_deadline_gives_cheapest () =
  let tbl = fig5_table () in
  match solve_with_cost tbl ~deadline:100 with
  | None -> Alcotest.fail "loose deadline feasible"
  | Some (a, cost) ->
      Alcotest.(check (array int)) "all cheapest" [| 2; 2; 2 |] a;
      Alcotest.(check int) "sum of min costs" 6 cost

let test_infeasible () =
  let tbl = fig5_table () in
  Alcotest.(check bool) "below min makespan" true
    (solve tbl ~deadline:3 = None);
  Alcotest.(check bool) "negative deadline" true
    (solve tbl ~deadline:(-1) = None)

let test_empty_path () =
  let tbl = table lib3 [] in
  match solve_with_cost tbl ~deadline:0 with
  | Some (a, 0) -> Alcotest.(check int) "empty assignment" 0 (Array.length a)
  | _ -> Alcotest.fail "empty path costs 0"

let test_single_node () =
  let tbl = table lib3 [ ([ 2; 4; 6 ], [ 9; 5; 1 ]) ] in
  (match solve_with_cost tbl ~deadline:4 with
  | Some (a, c) ->
      Alcotest.(check (array int)) "middle type" [| 1 |] a;
      Alcotest.(check int) "cost" 5 c
  | None -> Alcotest.fail "feasible");
  Alcotest.(check bool) "time 1 infeasible" true
    (solve tbl ~deadline:1 = None)

let test_cost_profile_monotone () =
  let tbl = fig5_table () in
  let profile = cost_profile tbl ~deadline:15 in
  Alcotest.(check int) "length T+1" 16 (Array.length profile);
  for j = 1 to 15 do
    Alcotest.(check bool)
      (Printf.sprintf "X[%d] <= X[%d]" j (j - 1))
      true
      (profile.(j) <= profile.(j - 1))
  done;
  Alcotest.(check int) "X[4] = all-fastest cost" 31 profile.(4);
  Alcotest.(check int) "X[3] infeasible" max_int profile.(3)

(* A path given as a graph is a forest: solving it in its own orientation
   gives the chain's optimum. *)
let test_solve_graph_matches_solve () =
  let tbl = fig5_table () in
  let g = path_graph 3 in
  for deadline = 4 to 12 do
    let direct = solve tbl ~deadline in
    let via_graph = Assign.Tree_assign.solve g tbl ~deadline in
    match (direct, via_graph) with
    | None, None -> ()
    | Some a, Some b ->
        Alcotest.(check int)
          "same cost"
          (Assign.Assignment.total_cost tbl a)
          (Assign.Assignment.total_cost tbl b)
    | _ -> Alcotest.fail "feasibility mismatch"
  done

let test_solve_graph_nontrivial_ids () =
  (* path through node ids out of order: 2 -> 0 -> 1 *)
  let g = graph 3 [ (2, 0); (0, 1) ] in
  let tbl =
    table lib2 [ ([ 1; 5 ], [ 10; 1 ]); ([ 1; 5 ], [ 10; 1 ]); ([ 1; 5 ], [ 10; 1 ]) ]
  in
  match Assign.Tree_assign.solve g tbl ~deadline:7 with
  | None -> Alcotest.fail "feasible"
  | Some a ->
      check_feasible g tbl ~deadline:7 (Some a);
      (* exactly one node can afford the slow cheap type *)
      let slow = Array.fold_left (fun acc t -> acc + if t = 1 then 1 else 0) 0 a in
      Alcotest.(check int) "one slow node" 1 slow

let test_two_types_knapsack_like () =
  (* each node independently picks cheap iff budget remains: optimal total
     equals DP; verify against brute force across all deadlines *)
  let tbl =
    table lib2
      [
        ([ 1; 3 ], [ 5; 1 ]);
        ([ 2; 5 ], [ 8; 2 ]);
        ([ 1; 2 ], [ 4; 3 ]);
        ([ 3; 7 ], [ 9; 2 ]);
      ]
  in
  let g = path_graph 4 in
  for deadline = 6 to 18 do
    against_oracle ~exact:true
      (Printf.sprintf "2-type T=%d" deadline)
      g tbl ~deadline
      (solve tbl ~deadline)
  done

let () =
  Alcotest.run "assign.path"
    [
      ( "path_assign",
        [
          quick "optimal vs brute force" test_optimal_matches_bruteforce;
          quick "tight deadline" test_tight_deadline_forces_fastest;
          quick "loose deadline" test_loose_deadline_gives_cheapest;
          quick "infeasible deadlines" test_infeasible;
          quick "empty path" test_empty_path;
          quick "single node" test_single_node;
          quick "cost profile monotone" test_cost_profile_monotone;
          quick "solve_graph agrees" test_solve_graph_matches_solve;
          quick "solve_graph with permuted ids" test_solve_graph_nontrivial_ids;
          quick "two-type instances" test_two_types_knapsack_like;
        ] );
    ]
