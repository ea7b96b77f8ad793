(* Differential tests for the flat solver-context layer: the CSR graph
   views, flat table views, flat/incremental DP kernels and threaded
   ASAP/ALAP frames must be bit-identical to the reference (pre-refactor)
   implementations they replaced. *)

let of_seed f =
  QCheck.make ~print:string_of_int QCheck.Gen.(map abs int) |> fun arb ->
  (arb, f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let instance ?(max_nodes = 12) ?(types = 3) ?(tree = false) seed =
  let rng = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int rng max_nodes in
  let g =
    if tree then Workloads.Random_dfg.random_tree rng ~n ~max_children:3
    else Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3
  in
  let lib =
    Fulib.Library.make (Array.init types (fun i -> Printf.sprintf "T%d" i))
  in
  let tbl =
    Workloads.Tables.random_arbitrary rng ~library:lib ~num_nodes:n ~max_time:4
      ~max_cost:9
  in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin + Workloads.Prng.int rng 8 in
  (g, tbl, deadline)

let same_opt a b =
  match (a, b) with
  | Some (x, c), Some (y, c') -> x = y && c = c'
  | None, None -> true
  | _ -> false

(* --- CSR view invariants ---------------------------------------------- *)

let csr_matches_lists =
  of_seed (fun seed ->
      let g, _, _ = instance seed in
      let n = Dfg.Graph.num_nodes g in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok :=
          !ok
          && Dfg.Graph.fold_dag_succs g v ~init:[] ~f:(fun acc w -> w :: acc)
             = List.rev (Dfg.Graph.dag_succs g v)
          && Dfg.Graph.fold_dag_preds g v ~init:[] ~f:(fun acc w -> w :: acc)
             = List.rev (Dfg.Graph.dag_preds g v)
          && Dfg.Graph.dag_out_degree g v
             = List.length (Dfg.Graph.dag_succs g v)
          && Dfg.Graph.dag_in_degree g v = List.length (Dfg.Graph.dag_preds g v)
      done;
      !ok
      && Array.to_list (Dfg.Graph.topo_arr g) = Dfg.Topo.sort g
      && Array.to_list (Dfg.Graph.post_arr g) = Dfg.Topo.post_order g
      && Array.to_list (Dfg.Graph.roots_arr g) = Dfg.Graph.roots g
      && Array.to_list (Dfg.Graph.leaves_arr g) = Dfg.Graph.leaves g)

let flat_table_matches =
  of_seed (fun seed ->
      let _, tbl, _ = instance seed in
      let n = Fulib.Table.num_nodes tbl and k = Fulib.Table.num_types tbl in
      let times = Fulib.Table.flat_times tbl in
      let costs = Fulib.Table.flat_costs tbl in
      let mt = Fulib.Table.min_times_arr tbl in
      let mc = Fulib.Table.min_costs_arr tbl in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok := !ok && mt.(v) = Fulib.Table.min_time tbl v;
        ok := !ok && mc.(v) = Fulib.Table.min_cost tbl v;
        for t = 0 to k - 1 do
          ok :=
            !ok
            && times.((v * k) + t) = Fulib.Table.time tbl ~node:v ~ftype:t
            && costs.((v * k) + t) = Fulib.Table.cost tbl ~node:v ~ftype:t
        done
      done;
      !ok)

(* --- Flat kernels vs references --------------------------------------- *)

let tree_flat_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      same_opt
        (Assign.Tree_assign.solve_with_cost g tbl ~deadline)
        (Assign.Tree_assign.solve_with_cost_reference g tbl ~deadline))

let path_flat_equals_reference =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 10 in
      let lib = Fulib.Library.make [| "T0"; "T1" |] in
      let tbl =
        Workloads.Tables.random_arbitrary rng ~library:lib ~num_nodes:n
          ~max_time:4 ~max_cost:9
      in
      let deadline = Workloads.Prng.int rng 30 in
      same_opt
        (Assign.Path_assign.solve_with_cost tbl ~deadline)
        (Assign.Path_assign.solve_with_cost_reference tbl ~deadline))

let repeat_incremental_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      Assign.Dfg_assign.repeat g tbl ~deadline
      = Assign.Dfg_assign.repeat_reference g tbl ~deadline)

let repeat_tight_deadlines =
  of_seed (fun seed ->
      (* Sweep deadlines below and above Tmin so infeasible cases and the
         incremental kernel's dirty-row paths are both exercised. *)
      let g, tbl, _ = instance seed in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.for_all
        (fun deadline ->
          Assign.Dfg_assign.repeat g tbl ~deadline
          = Assign.Dfg_assign.repeat_reference g tbl ~deadline)
        [ tmin - 1; tmin; tmin + 3 ])

let dp_row_ctx_equals_plain =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      let ctx = Assign.Context.create g tbl in
      let n = Dfg.Graph.num_nodes g in
      let ok = ref true in
      for node = 0 to n - 1 do
        ok :=
          !ok
          && Assign.Tree_assign.dp_row ~ctx g tbl ~deadline ~node
             = Assign.Tree_assign.dp_row g tbl ~deadline ~node
      done;
      (* Forest cost from the cached rows equals the reference total. *)
      (match Assign.Tree_assign.solve_with_cost_reference g tbl ~deadline with
      | Some (_, total) ->
          let roots = Dfg.Graph.roots_arr g in
          let sum =
            Array.fold_left
              (fun acc r ->
                acc + (Assign.Context.dp_row ctx ~deadline ~node:r).(deadline))
              0 roots
          in
          ok := !ok && sum = total
      | None -> ());
      !ok)

let frames_equal_asap_alap =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      match Assign.Dfg_assign.once g tbl ~deadline with
      | None -> true
      | Some a -> (
          match
            ( Sched.Asap_alap.frames g tbl a ~deadline,
              Sched.Asap_alap.alap g tbl a ~deadline )
          with
          | Some (asap, alap), Some alap' ->
              asap = Sched.Asap_alap.asap g tbl a && alap = alap'
          | None, None -> true
          | _ -> false))

let min_resource_frames_threading =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      match Assign.Dfg_assign.once g tbl ~deadline with
      | None -> true
      | Some a -> (
          let plain = Sched.Min_resource.run g tbl a ~deadline in
          let threaded =
            match Sched.Asap_alap.frames g tbl a ~deadline with
            | None -> None
            | Some frames -> Sched.Min_resource.run ~frames g tbl a ~deadline
          in
          match (plain, threaded) with
          | Some r, Some r' ->
              r.Sched.Min_resource.schedule = r'.Sched.Min_resource.schedule
              && r.config = r'.config
              && r.lower_bound = r'.lower_bound
          | None, None -> true
          | _ -> false))

(* --- The six paper benchmarks ----------------------------------------- *)

let benchmark_table (name, g) =
  let seed =
    String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name
  in
  let rng = Workloads.Prng.create seed in
  Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 g

let test_repeat_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let tbl = benchmark_table (name, g) in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.iter
        (fun deadline ->
          let inc = Assign.Dfg_assign.repeat g tbl ~deadline in
          let ref_ = Assign.Dfg_assign.repeat_reference g tbl ~deadline in
          Alcotest.(check bool)
            (Printf.sprintf "%s T=%d incremental = reference" name deadline)
            true (inc = ref_);
          match inc with
          | None -> ()
          | Some a ->
              Alcotest.(check bool)
                (Printf.sprintf "%s T=%d cost identical" name deadline)
                true
                (Option.map
                   (Assign.Assignment.total_cost tbl)
                   ref_
                = Some (Assign.Assignment.total_cost tbl a)))
        [ tmin; tmin + (tmin / 4); tmin + (tmin / 2) ])
    (Workloads.Filters.all ())

(* Inline-sized DAGs whose trees carry at least 20 duplicated nodes: long
   fixing sequences, where each duplicated node's copies are read back by
   a per-copy traceback, must match the whole-tree reference. *)
let test_repeat_many_duplicates () =
  List.iter
    (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 80 + (20 * (seed mod 4)) in
      let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 3) in
      let tbl =
        Workloads.Tables.random_tradeoff rng ~library:Fulib.Library.standard3
          ~num_nodes:n
      in
      let _, tree = Assign.Dfg_assign.choose_tree g in
      let dups = List.length (Dfg.Expand.duplicated_nodes tree) in
      if dups < 20 then
        Alcotest.failf "seed %d: only %d duplicated nodes" seed dups;
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.iter
        (fun deadline ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d (%d dups) T=%d" seed dups deadline)
            true
            (Assign.Dfg_assign.repeat g tbl ~deadline
            = Assign.Dfg_assign.repeat_reference g tbl ~deadline))
        [ tmin; tmin + (tmin / 4); tmin + (tmin / 2) ])
    (List.init 8 Fun.id)

let test_synthesis_config_on_benchmarks () =
  (* Full two-phase runs stay unchanged under the threaded frames: the
     configurations Table 1/2 report are derived from these. *)
  List.iter
    (fun (name, g) ->
      let tbl = benchmark_table (name, g) in
      let tmin = Assign.Assignment.min_makespan g tbl in
      let deadline = tmin + (tmin / 4) in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g tbl))
          .Core.Synthesis.result
      with
      | None ->
          Alcotest.failf "%s: synthesis infeasible at T=%d" name deadline
      | Some r ->
          let a = r.Core.Synthesis.assignment in
          let expected =
            match Sched.Min_resource.run g tbl a ~deadline with
            | Some m -> m.Sched.Min_resource.config
            | None -> Alcotest.failf "%s: scheduling infeasible" name
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s config unchanged" name)
            (Array.to_list expected)
            (Array.to_list r.Core.Synthesis.config))
    (Workloads.Filters.all ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "kernel"
    [
      ( "csr",
        [
          prop "csr adjacency/orders/roots match list views" 300
            csr_matches_lists;
          prop "flat table views match accessors" 300 flat_table_matches;
        ] );
      ( "flat kernels",
        [
          prop "tree flat DP = reference" 400 tree_flat_equals_reference;
          prop "path flat DP = reference" 400 path_flat_equals_reference;
          prop "incremental repeat = reference" 300
            repeat_incremental_equals_reference;
          prop "incremental repeat = reference (deadline sweep)" 200
            repeat_tight_deadlines;
          prop "dp_row via context = plain dp_row" 200 dp_row_ctx_equals_plain;
        ] );
      ( "frames",
        [
          prop "frames = (asap, alap)" 300 frames_equal_asap_alap;
          prop "min-resource with threaded frames unchanged" 200
            min_resource_frames_threading;
        ] );
      ( "benchmarks",
        [
          quick "incremental repeat = reference on all six"
            test_repeat_on_benchmarks;
          quick "incremental repeat = reference, >= 20 duplicated nodes"
            test_repeat_many_duplicates;
          quick "synthesis configurations unchanged"
            test_synthesis_config_on_benchmarks;
        ] );
    ]
