(* Property-based tests (qcheck) on the core invariants. Instances are
   generated through the repository's own seeded generators, driven by a
   qcheck-provided seed, so shrinking still works on the seed. *)

let of_seed f =
  QCheck.make ~print:string_of_int QCheck.Gen.(map abs int) |> fun arb ->
  (arb, f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* Build a random (graph, table, deadline) instance from a seed. *)
let instance ?(max_nodes = 8) ?(types = 2) ?(tree = false) seed =
  let rng = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int rng max_nodes in
  let g =
    if tree then Workloads.Random_dfg.random_tree rng ~n ~max_children:3
    else Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2
  in
  let lib =
    Fulib.Library.make (Array.init types (fun i -> Printf.sprintf "T%d" i))
  in
  let tbl =
    Oracle.Tables.random_arbitrary rng ~library:lib ~num_nodes:n ~max_time:4
      ~max_cost:9
  in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin + Workloads.Prng.int rng 8 in
  (g, tbl, deadline)

(* --- Phase 1 properties --------------------------------------------- *)

let tree_assign_optimal =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      match
        ( Assign.Tree_assign.solve_with_cost g tbl ~deadline,
          Helpers.brute_force g tbl ~deadline )
      with
      | Some (a, c), Some (_, opt) ->
          Assign.Assignment.is_feasible g tbl a ~deadline && c = opt
      | None, None -> true
      | _ -> false)

let path_assign_optimal =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 7 in
      let lib = Helpers.lib2 in
      let tbl =
        Oracle.Tables.random_arbitrary rng ~library:lib ~num_nodes:n
          ~max_time:4 ~max_cost:9
      in
      let g = Helpers.path_graph n in
      let deadline = Workloads.Prng.int rng 30 in
      match
        ( Assign.Tree_assign.solve_with_cost (Oracle.Path_assign.chain tbl) tbl
            ~deadline,
          Helpers.brute_force g tbl ~deadline )
      with
      | Some (a, c), Some (_, opt) ->
          Assign.Assignment.is_feasible g tbl a ~deadline && c = opt
      | None, None -> true
      | _ -> false)

let exact_matches_bruteforce =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~max_nodes:6 seed in
      match
        (Assign.Exact.solve g tbl ~deadline, Helpers.brute_force g tbl ~deadline)
      with
      | Some (_, c), Some (_, opt) -> c = opt
      | None, None -> true
      | _ -> false)

let heuristics_feasible =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~max_nodes:10 ~types:3 seed in
      let check = function
        | Some a -> Assign.Assignment.is_feasible g tbl a ~deadline
        | None -> false (* deadline >= tmin, so a solution always exists *)
      in
      check (Assign.Dfg_assign.once g tbl ~deadline)
      && check (Assign.Dfg_assign.repeat g tbl ~deadline)
      && check (Assign.Greedy.solve g tbl ~deadline)
      && check (Assign.Greedy.solve_iterative g tbl ~deadline))

let heuristics_bounded_by_exact =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~max_nodes:6 seed in
      match Assign.Exact.solve g tbl ~deadline with
      | None -> true
      | Some (_, opt) ->
          let not_better = function
            | Some a -> Assign.Assignment.total_cost tbl a >= opt
            | None -> false
          in
          not_better (Assign.Dfg_assign.once g tbl ~deadline)
          && not_better (Assign.Dfg_assign.repeat g tbl ~deadline)
          && not_better (Assign.Greedy.solve g tbl ~deadline))

let dp_monotone_in_deadline =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true ~max_nodes:7 seed in
      let cost d =
        Option.map snd (Assign.Tree_assign.solve_with_cost g tbl ~deadline:d)
      in
      match (cost deadline, cost (deadline + 3)) with
      | Some c, Some c' -> c' <= c
      | None, _ -> true
      | Some _, None -> false)

let expansion_preserves_critical_paths =
  of_seed (fun seed ->
      let g, _, _ = instance ~max_nodes:7 seed in
      let tg = Oracle.Expand.tree_graph g (Dfg.Expand.expand g) in
      let names gr path = List.map (Dfg.Graph.name gr) path in
      let original =
        List.sort_uniq compare
          (List.map (names g) (Dfg.Paths.critical_paths g))
      in
      let expanded =
        List.sort_uniq compare
          (List.map (names tg) (Dfg.Paths.critical_paths tg))
      in
      Dfg.Graph.is_tree tg && original = expanded)

let knapsack_reduction_sound =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 6 in
      let items =
        Array.init n (fun _ ->
            { Oracle.Knapsack.value = Workloads.Prng.int rng 12;
              weight = Workloads.Prng.int rng 8 })
      in
      let capacity = Workloads.Prng.int rng 16 in
      let target_value = Workloads.Prng.int rng 30 in
      Oracle.Knapsack.decision ~items ~capacity ~target_value
      = Oracle.Np_reduction.decide_via_assignment ~items ~capacity ~target_value)

(* --- Phase 2 properties --------------------------------------------- *)

let schedule_valid =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~max_nodes:10 ~types:3 seed in
      match Assign.Dfg_assign.repeat g tbl ~deadline with
      | None -> false
      | Some a -> (
          match Sched.Min_resource.run g tbl a ~deadline with
          | None -> false
          | Some { Sched.Min_resource.schedule; config; lower_bound } ->
              Sched.Schedule.respects_precedence g tbl schedule
              && Sched.Schedule.meets_deadline tbl schedule ~deadline
              && Sched.Schedule.fits tbl schedule ~config
              && Array.for_all2 ( <= ) lower_bound
                   (Array.map2 max lower_bound config)
              && Sched.Config.dominates
                   (Sched.Min_resource.naive_config tbl a)
                   config))

let lower_bound_sound =
  (* the lower bound must hold for ANY valid schedule, in particular the
     generated one: peak usage >= bound is checked per type *)
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~max_nodes:9 ~types:2 seed in
      match Assign.Greedy.solve g tbl ~deadline with
      | None -> false
      | Some a -> (
          match
            ( Sched.Lower_bound.per_type g tbl a ~deadline,
              Sched.Min_resource.run g tbl a ~deadline )
          with
          | Some lb, Some { Sched.Min_resource.config; _ } ->
              Array.for_all2 ( <= ) lb config
          | _ -> false))

let alap_never_before_asap =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~max_nodes:10 seed in
      let a = Assign.Assignment.all_fastest tbl in
      match Sched.Asap_alap.alap g tbl a ~deadline with
      | None -> false
      | Some alap ->
          let asap = Sched.Asap_alap.asap g tbl a in
          Array.for_all2 ( <= ) asap alap)

(* --- Retiming properties --------------------------------------------- *)

let retiming_sound =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 2 + Workloads.Prng.int rng 8 in
      let g0 = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
      (* add a delayed back edge to make it cyclic *)
      let edges =
        { Dfg.Graph.src = n - 1; dst = 0; delay = 1 + Workloads.Prng.int rng 3; size = 0 }
        :: Dfg.Graph.edges g0
      in
      let g =
        Dfg.Graph.of_edges ~names:(Dfg.Graph.names g0)
          ~ops:(Array.init n (fun v -> Dfg.Graph.op g0 v))
          edges
      in
      let time v = 1 + (v mod 3) in
      let period, r = Dfg.Cyclic.min_cycle_period g ~time in
      let retimed = Dfg.Cyclic.apply g r in
      Dfg.Cyclic.is_legal g r
      && Dfg.Cyclic.cycle_period retimed ~time = period
      && period <= Dfg.Cyclic.cycle_period g ~time
      && float_of_int period >= Dfg.Cyclic.iteration_bound g ~time -. 1e-6)

let () =
  Alcotest.run "properties"
    [
      ( "assignment",
        [
          prop "Tree_assign is optimal on random trees" 150 tree_assign_optimal;
          prop "Path_assign is optimal on random paths" 200 path_assign_optimal;
          prop "Exact matches brute force" 120 exact_matches_bruteforce;
          prop "heuristics always feasible" 150 heuristics_feasible;
          prop "heuristics never beat the optimum" 120 heuristics_bounded_by_exact;
          prop "optimal cost monotone in deadline" 120 dp_monotone_in_deadline;
          prop "expansion preserves critical paths" 120 expansion_preserves_critical_paths;
          prop "knapsack reduction answer-preserving" 200 knapsack_reduction_sound;
        ] );
      ( "scheduling",
        [
          prop "generated schedules are valid" 120 schedule_valid;
          prop "lower bound below achieved config" 120 lower_bound_sound;
          prop "ASAP <= ALAP" 150 alap_never_before_asap;
        ] );
      ( "retiming",
        [ prop "min_cycle_period sound" 80 retiming_sound ] );
    ]
