open Helpers
module Sp = Oracle.Series_parallel

let test_recognises_structures () =
  Alcotest.(check bool) "empty" true (Sp.is_series_parallel (graph 0 []));
  Alcotest.(check bool) "single node" true (Sp.is_series_parallel (graph 1 []));
  Alcotest.(check bool) "path" true (Sp.is_series_parallel (path_graph 5));
  Alcotest.(check bool) "diamond" true (Sp.is_series_parallel (diamond ()));
  Alcotest.(check bool) "out-tree" true
    (Sp.is_series_parallel (graph 5 [ (0, 1); (0, 2); (1, 3); (1, 4) ]));
  Alcotest.(check bool) "in-tree" true
    (Sp.is_series_parallel (graph 3 [ (0, 2); (1, 2) ]));
  Alcotest.(check bool) "independent nodes" true
    (Sp.is_series_parallel (graph 3 []))

let test_rejects_non_sp () =
  (* the "N" graph: 0->2, 0->3, 1->3 crossing is the canonical non-SP
     pattern (after terminal closure it contains the forbidden W) *)
  let n_graph = graph 4 [ (0, 2); (0, 3); (1, 3) ] in
  Alcotest.(check bool) "N graph" false (Sp.is_series_parallel n_graph)

let test_decompose_covers_all_nodes () =
  let g = diamond () in
  match Sp.decompose g with
  | None -> Alcotest.fail "diamond is SP"
  | Some expr ->
      let seen = Array.make 4 0 in
      let rec walk = function
        | Sp.Node v -> seen.(v) <- seen.(v) + 1
        | Sp.Series es | Sp.Parallel es -> List.iter walk es
      in
      walk expr;
      Alcotest.(check (array int)) "each node once" [| 1; 1; 1; 1 |] seen

let test_optimal_on_diamond () =
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
  for deadline = 0 to 13 do
    against_oracle ~exact:true
      (Printf.sprintf "SP diamond T=%d" deadline)
      g tbl ~deadline
      (Option.map fst (Sp.solve g tbl ~deadline))
  done

let test_agrees_with_tree_assign_on_trees () =
  let rng = Workloads.Prng.create 41 in
  for trial = 1 to 25 do
    let n = 1 + Workloads.Prng.int rng 10 in
    let g = Workloads.Random_dfg.random_tree rng ~n ~max_children:3 in
    let tbl =
      Oracle.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:n
        ~max_time:4 ~max_cost:9
    in
    let deadline = Assign.Assignment.min_makespan g tbl + Workloads.Prng.int rng 6 in
    match
      (Sp.solve g tbl ~deadline, Assign.Tree_assign.solve_with_cost g tbl ~deadline)
    with
    | Some (_, c), Some (_, c') ->
        Alcotest.(check int) (Printf.sprintf "trial %d" trial) c' c
    | None, None -> ()
    | _ -> Alcotest.failf "trial %d: feasibility mismatch" trial
  done

let test_raises_on_non_sp () =
  let g = graph 4 [ (0, 2); (0, 3); (1, 3) ] in
  let tbl =
    table lib2
      [ ([ 1; 2 ], [ 2; 1 ]); ([ 1; 2 ], [ 2; 1 ]); ([ 1; 2 ], [ 2; 1 ]); ([ 1; 2 ], [ 2; 1 ]) ]
  in
  Alcotest.check_raises "non-SP"
    (Invalid_argument "Series_parallel.solve: graph is not series-parallel")
    (fun () -> ignore (Sp.solve g tbl ~deadline:5))

(* random SP expression over exactly n nodes *)
let rec random_expr rng nodes =
  match nodes with
  | [] -> Sp.Series []
  | [ v ] -> Sp.Node v
  | _ ->
      let k = 1 + Workloads.Prng.int rng (List.length nodes - 1) in
      let rec split i acc = function
        | rest when i = 0 -> (List.rev acc, rest)
        | x :: rest -> split (i - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let left, right = split k [] nodes in
      let l = random_expr rng left and r = random_expr rng right in
      if Workloads.Prng.int rng 2 = 0 then Sp.Series [ l; r ] else Sp.Parallel [ l; r ]

(* like [random_expr] but every series composition of two composite parts
   goes through a single-node junction, keeping the realisation inside the
   recognisable two-terminal SP class *)
let rec random_expr_junction rng nodes =
  match nodes with
  | [] -> Sp.Series []
  | [ v ] -> Sp.Node v
  | junction :: rest ->
      let k = 1 + Workloads.Prng.int rng (max 1 (List.length rest - 1)) in
      let rec split i acc = function
        | tail when i = 0 -> (List.rev acc, tail)
        | x :: tail -> split (i - 1) (x :: acc) tail
        | [] -> (List.rev acc, [])
      in
      let left, right = split k [] rest in
      let l = random_expr_junction rng left
      and r = random_expr_junction rng right in
      if Workloads.Prng.int rng 2 = 0 || right = [] then
        Sp.Parallel [ Sp.Series [ l; Sp.Node junction ]; r ]
      else Sp.Series [ l; Sp.Node junction; r ]

let test_random_sp_roundtrip () =
  let rng = Workloads.Prng.create 51 in
  for trial = 1 to 30 do
    let n = 2 + Workloads.Prng.int rng 6 in
    let expr = random_expr_junction rng (List.init n (fun i -> i)) in
    let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
    let g = Sp.to_graph ~names expr in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d: realisation is SP" trial)
      true (Sp.is_series_parallel g);
    let tbl =
      Oracle.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:n
        ~max_time:3 ~max_cost:8
    in
    let deadline = Workloads.Prng.int rng 15 in
    against_oracle ~exact:true
      (Printf.sprintf "SP trial %d (graph)" trial)
      g tbl ~deadline
      (Option.map fst (Sp.solve g tbl ~deadline))
  done

let test_expr_dp_exact_on_any_realisation () =
  (* even realisations outside the recognisable class (complete bipartite
     series junctions) are solved exactly by the expression DP: the
     per-path constraints factor into the series/parallel recurrences *)
  let rng = Workloads.Prng.create 52 in
  for trial = 1 to 30 do
    let n = 2 + Workloads.Prng.int rng 6 in
    let expr = random_expr rng (List.init n (fun i -> i)) in
    let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
    let g = Sp.to_graph ~names expr in
    let tbl =
      Oracle.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:n
        ~max_time:3 ~max_cost:8
    in
    let deadline = Workloads.Prng.int rng 15 in
    match (Sp.solve_expr expr tbl ~deadline, brute_force g tbl ~deadline) with
    | Some (a, c), Some (_, opt) ->
        Alcotest.(check int) (Printf.sprintf "SP trial %d (expr)" trial) opt c;
        check_feasible g tbl ~deadline (Some a)
    | None, None -> ()
    | _ -> Alcotest.failf "trial %d: expr feasibility mismatch" trial
  done

(* The SP DP is optimal, so on a recognisable SP graph it bounds every
   wire algorithm from below: each one that returns an assignment must
   return a feasible one costing at least the SP optimum (Tree only where
   it applies), and Exact must find exactly it. Random tables over 2 or 3
   types; deadlines from the minimum makespan up to twice it. *)
let sp_optimum_bounds_every_algorithm =
  QCheck.Test.make ~count:150 ~name:"SP optimum bounds every algorithm"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 2 + Workloads.Prng.int rng 9 in
      let expr = random_expr_junction rng (List.init n Fun.id) in
      let g = Sp.to_graph ~names:(Array.init n (Printf.sprintf "v%d")) expr in
      let library = if Workloads.Prng.int rng 2 = 0 then lib2 else lib3 in
      let tbl =
        Oracle.Tables.random_arbitrary rng ~library ~num_nodes:n ~max_time:4
          ~max_cost:9
      in
      let tmin = Assign.Assignment.min_makespan g tbl in
      let deadline = tmin + Workloads.Prng.int rng (tmin + 1) in
      let opt =
        match Sp.solve g tbl ~deadline with
        | Some (_, c) -> c
        | None -> QCheck.Test.fail_reportf "SP infeasible at T = %d" deadline
      in
      List.for_all
        (fun algo ->
          let name = Assign.Solve.name algo in
          Result.is_error (Assign.Solve.applicable algo g)
          ||
          match Assign.Solve.dispatch algo g tbl ~deadline with
          | None when algo = Assign.Solve.Exact ->
              QCheck.Test.fail_reportf "Exact infeasible at T = %d" deadline
          | None -> true
          | Some a ->
              let c = Assign.Assignment.total_cost tbl a in
              if not (Assign.Assignment.is_feasible g tbl a ~deadline) then
                QCheck.Test.fail_reportf "%s misses T = %d" name deadline;
              if c < opt || (algo = Assign.Solve.Exact && c <> opt) then
                QCheck.Test.fail_reportf "%s costs %d, SP optimum %d" name c
                  opt;
              true)
        Assign.Solve.all)

let test_benchmark_classification () =
  (* all tree benchmarks are SP; reconvergent ones may or may not be —
     record the classification so changes are deliberate *)
  let sp name = Sp.is_series_parallel (List.assoc name (Workloads.Filters.all ())) in
  Alcotest.(check bool) "4-stage lattice" true (sp "4-stage lattice");
  Alcotest.(check bool) "volterra" true (sp "volterra")

let () =
  Alcotest.run "assign.series_parallel"
    [
      ( "recognition",
        [
          quick "recognises SP structures" test_recognises_structures;
          quick "rejects the N graph" test_rejects_non_sp;
          quick "decomposition covers nodes" test_decompose_covers_all_nodes;
          quick "benchmark classification" test_benchmark_classification;
        ] );
      ( "optimality",
        [
          quick "optimal on diamond" test_optimal_on_diamond;
          quick "agrees with Tree_assign" test_agrees_with_tree_assign_on_trees;
          quick "raises on non-SP" test_raises_on_non_sp;
          quick "random SP round-trip" test_random_sp_roundtrip;
          quick "expr DP exact on any realisation" test_expr_dp_exact_on_any_realisation;
          QCheck_alcotest.to_alcotest sp_optimum_bounds_every_algorithm;
        ] );
    ]
