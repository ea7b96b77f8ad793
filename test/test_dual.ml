open Helpers

(* exhaustive dual oracle: minimum makespan within a cost budget *)
let brute_force_dual g tbl ~budget =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types tbl in
  let a = Array.make n 0 in
  let best = ref None in
  let consider () =
    if Assign.Assignment.total_cost tbl a <= budget then begin
      let m = Assign.Assignment.makespan g tbl a in
      match !best with Some m' when m' <= m -> () | _ -> best := Some m
    end
  in
  let rec enumerate i =
    if i = n then consider ()
    else
      for t = 0 to k - 1 do
        a.(i) <- t;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  !best

let sample_tree () =
  ( graph 4 [ (0, 1); (0, 2); (2, 3) ],
    table lib3
      [
        ([ 1; 2; 3 ], [ 10; 6; 2 ]);
        ([ 1; 2; 4 ], [ 12; 7; 3 ]);
        ([ 2; 3; 5 ], [ 9; 4; 1 ]);
        ([ 1; 3; 4 ], [ 8; 5; 2 ]);
      ] )

let test_tree_dual_matches_oracle () =
  let g, tbl = sample_tree () in
  for budget = 0 to 45 do
    let got = Assign.Dual.for_tree g tbl ~budget in
    let want = brute_force_dual g tbl ~budget in
    match (got, want) with
    | None, None -> ()
    | Some (m, a), Some m' ->
        Alcotest.(check int) (Printf.sprintf "budget %d" budget) m' m;
        Alcotest.(check bool) "witness meets budget" true
          (Assign.Assignment.total_cost tbl a <= budget);
        Alcotest.(check bool) "witness meets makespan" true
          (Assign.Assignment.makespan g tbl a <= m)
    | None, Some _ -> Alcotest.failf "budget %d: missed a solution" budget
    | Some _, None -> Alcotest.failf "budget %d: invented a solution" budget
  done

let test_path_dp_matches_oracle () =
  let rng = Workloads.Prng.create 61 in
  for trial = 1 to 30 do
    let n = 1 + Workloads.Prng.int rng 6 in
    let tbl =
      Oracle.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:n
        ~max_time:5 ~max_cost:7
    in
    let g = path_graph n in
    let budget = Workloads.Prng.int rng 30 in
    match (Oracle.Dual.path_dp tbl ~budget, brute_force_dual g tbl ~budget) with
    | Some (m, a), Some m' ->
        Alcotest.(check int) (Printf.sprintf "trial %d" trial) m' m;
        Alcotest.(check bool) "witness ok" true
          (Assign.Assignment.total_cost tbl a <= budget
          && Assign.Assignment.makespan g tbl a = m)
    | None, None -> ()
    | _ -> Alcotest.failf "trial %d: feasibility mismatch" trial
  done

let test_dual_primal_consistency () =
  (* solving the dual at the primal's optimal cost must get the original
     deadline back (or better) *)
  let g, tbl = sample_tree () in
  for deadline = 4 to 14 do
    match Assign.Tree_assign.solve_with_cost g tbl ~deadline with
    | None -> ()
    | Some (_, cost) -> (
        match Assign.Dual.for_tree g tbl ~budget:cost with
        | None -> Alcotest.failf "T=%d: dual lost the primal solution" deadline
        | Some (m, _) ->
            Alcotest.(check bool)
              (Printf.sprintf "T=%d: dual makespan within deadline" deadline)
              true (m <= deadline))
  done

let test_budget_below_minimum () =
  let g, tbl = sample_tree () in
  let min_cost =
    Assign.Assignment.total_cost tbl (Assign.Assignment.all_cheapest tbl)
  in
  Alcotest.(check bool) "hopeless budget" true
    (Assign.Dual.for_tree g tbl ~budget:(min_cost - 1) = None);
  Alcotest.(check bool) "negative budget on path" true
    (Oracle.Dual.path_dp tbl ~budget:(-1) = None)

let test_empty () =
  let tbl = table lib2 [] in
  match Oracle.Dual.path_dp tbl ~budget:0 with
  | Some (0, a) -> Alcotest.(check int) "empty" 0 (Array.length a)
  | _ -> Alcotest.fail "empty path: makespan 0 at cost 0"

let () =
  Alcotest.run "assign.dual"
    [
      ( "dual",
        [
          quick "tree dual vs oracle" test_tree_dual_matches_oracle;
          quick "path DP vs oracle" test_path_dp_matches_oracle;
          quick "primal/dual consistency" test_dual_primal_consistency;
          quick "hopeless budgets" test_budget_below_minimum;
          quick "empty" test_empty;
        ] );
    ]
