open Helpers

let sample_graph_table () =
  let g = diamond () in
  let tbl =
    table lib3
      [
        ([ 1; 2; 3 ], [ 10; 6; 2 ]);
        ([ 1; 2; 4 ], [ 12; 7; 3 ]);
        ([ 2; 3; 5 ], [ 9; 4; 1 ]);
        ([ 1; 3; 4 ], [ 8; 5; 2 ]);
      ]
  in
  (g, tbl)

let test_exact_matches_bruteforce () =
  let g, tbl = sample_graph_table () in
  for deadline = 0 to 14 do
    against_oracle ~exact:true
      (Printf.sprintf "Exact T=%d" deadline)
      g tbl ~deadline
      (Option.map fst (Assign.Exact.solve g tbl ~deadline))
  done

let test_exact_random_instances () =
  let rng = Workloads.Prng.create 5 in
  for trial = 1 to 30 do
    let n = 2 + Workloads.Prng.int rng 5 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    let tbl =
      Oracle.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:n
        ~max_time:4 ~max_cost:8
    in
    let deadline = Workloads.Prng.int rng 14 in
    against_oracle ~exact:true
      (Printf.sprintf "Exact trial %d" trial)
      g tbl ~deadline
      (Option.map fst (Assign.Exact.solve g tbl ~deadline))
  done

let test_exact_budget () =
  (* a hopeless budget must raise, not silently return garbage *)
  let rng = Workloads.Prng.create 1 in
  let g = Workloads.Random_dfg.random_dag rng ~n:12 ~extra_edges:4 in
  let tbl =
    Oracle.Tables.random_arbitrary rng ~library:lib3 ~num_nodes:12
      ~max_time:3 ~max_cost:9
  in
  let deadline = Assign.Assignment.min_makespan g tbl + 10 in
  Alcotest.check_raises "budget" Assign.Exact.Budget_exhausted (fun () ->
      ignore (Assign.Exact.solve ~budget:5 g tbl ~deadline))

let with_cost tbl = Option.map (fun a -> (a, Assign.Assignment.total_cost tbl a))

let test_greedy_feasible_and_improves_on_fastest () =
  let g, tbl = sample_graph_table () in
  for deadline = 3 to 14 do
    match with_cost tbl (Assign.Greedy.solve g tbl ~deadline) with
    | None ->
        Alcotest.(check bool)
          "greedy infeasible only below tmin" true
          (deadline < Assign.Assignment.min_makespan g tbl)
    | Some (a, c) ->
        check_feasible g tbl ~deadline (Some a);
        let fastest_cost =
          Assign.Assignment.total_cost tbl (Assign.Assignment.all_fastest tbl)
        in
        Alcotest.(check bool) "never worse than all-fastest" true (c <= fastest_cost)
  done

let test_greedy_loose_deadline_all_cheapest () =
  let g, tbl = sample_graph_table () in
  match with_cost tbl (Assign.Greedy.solve g tbl ~deadline:1000) with
  | None -> Alcotest.fail "feasible"
  | Some (_, c) ->
      let cheapest =
        Assign.Assignment.total_cost tbl (Assign.Assignment.all_cheapest tbl)
      in
      Alcotest.(check int) "greedy finds the unconstrained optimum" cheapest c

let test_iterative_variant_sound () =
  (* the two greedy variants are incomparable heuristics, but both must be
     feasible, agree on feasibility, and never exceed their all-fastest
     starting point *)
  let rng = Workloads.Prng.create 77 in
  for trial = 1 to 30 do
    let n = 4 + Workloads.Prng.int rng 10 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
    let tmin = Assign.Assignment.min_makespan g tbl in
    let deadline = tmin + Workloads.Prng.int rng (tmin + 1) in
    let start_cost =
      Assign.Assignment.total_cost tbl (Assign.Assignment.all_fastest tbl)
    in
    match
      ( with_cost tbl (Assign.Greedy.solve g tbl ~deadline),
        with_cost tbl (Assign.Greedy.solve_iterative g tbl ~deadline) )
    with
    | Some (a1, c1), Some (a2, c2) ->
        check_feasible g tbl ~deadline (Some a1);
        check_feasible g tbl ~deadline (Some a2);
        if c1 > start_cost || c2 > start_cost then
          Alcotest.failf "trial %d: greedy made things worse" trial
    | None, None -> ()
    | _ -> Alcotest.failf "trial %d: feasibility mismatch" trial
  done

let test_greedy_never_beats_exact () =
  let rng = Workloads.Prng.create 13 in
  for trial = 1 to 20 do
    let n = 3 + Workloads.Prng.int rng 4 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib2 ~num_nodes:n in
    let tmin = Assign.Assignment.min_makespan g tbl in
    let deadline = tmin + Workloads.Prng.int rng 5 in
    match
      ( with_cost tbl (Assign.Greedy.solve g tbl ~deadline),
        Assign.Exact.solve g tbl ~deadline )
    with
    | Some (_, gc), Some (_, oc) ->
        if gc < oc then
          Alcotest.failf "trial %d: greedy %d beats exact %d" trial gc oc
    | None, Some _ -> Alcotest.failf "trial %d: greedy missed a solution" trial
    | Some _, None -> Alcotest.failf "trial %d: greedy invented a solution" trial
    | None, None -> ()
  done

let () =
  Alcotest.run "assign.greedy_exact"
    [
      ( "exact",
        [
          quick "matches brute force" test_exact_matches_bruteforce;
          quick "random instances" test_exact_random_instances;
          quick "budget exhaustion" test_exact_budget;
        ] );
      ( "greedy",
        [
          quick "feasible, beats all-fastest" test_greedy_feasible_and_improves_on_fastest;
          quick "loose deadline optimal" test_greedy_loose_deadline_all_cheapest;
          quick "iterative variant sound" test_iterative_variant_sound;
          quick "never beats exact" test_greedy_never_beats_exact;
        ] );
    ]
