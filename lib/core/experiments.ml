type row = {
  deadline : int;
  costs : (Synthesis.algorithm * int option) list;
  config : Sched.Config.t option;
}

type benchmark_report = {
  name : string;
  nodes : int;
  duplicated : int;
  rows : row list;
  average_reduction : (Synthesis.algorithm * float) list;
}

let relaxations = [ 1.0; 1.1; 1.2; 1.35; 1.5; 1.75 ]

let deadlines g table =
  let tmin = Synthesis.min_deadline g table in
  List.map (fun f -> int_of_float (ceil (float_of_int tmin *. f))) relaxations

(* Indexing into the deadline ladder used to be a bare
   [List.nth (deadlines g table) i] at every study site — raising
   [Failure "nth"] with no clue which benchmark or index when a table
   yields fewer steps. Compute the ladder once per benchmark and go
   through this accessor instead. *)
let nth_deadline ~name ds i =
  match List.nth_opt ds i with
  | Some d -> d
  | None ->
      invalid_arg
        (Printf.sprintf
           "Experiments.deadline_at: benchmark %S has %d deadline step(s), \
            requested index %d"
           name (List.length ds) i)

let deadline_at ~name g table i = nth_deadline ~name (deadlines g table) i

(* One (deadline, algorithm) grid cell, expressed as a first-class
   synthesis request: Phase-1 solve, fail-fast audit under
   HETSCHED_VALIDATE, cost of the produced assignment. *)
let run_cell (req : Synthesis.request) =
  Option.map
    (Assign.Assignment.total_cost req.Synthesis.table)
    (Synthesis.assign req)

let run_benchmark ?pool ~name ~seed ~algorithms g =
  if algorithms = [] then
    invalid_arg "Experiments.run_benchmark: empty algorithm list";
  if not (List.mem Synthesis.Greedy algorithms) then
    invalid_arg
      "Experiments.run_benchmark: algorithms must include Greedy, the \
       baseline average_reduction is computed against";
  let pool = match pool with Some p -> p | None -> Par.Pool.global () in
  let table = Workloads.Tables.seeded ~seed g in
  Obs.Span.with_ ("experiments.benchmark:" ^ name) @@ fun () ->
  (* the graph and table are shared read-only across domains below *)
  let _, tree = Assign.Dfg_assign.choose_tree g in
  let duplicated = List.length (Dfg.Expand.duplicated_nodes tree) in
  (* Every (deadline, algorithm) cell is an independent solve; fan the grid
     out over the pool and reassemble the rows by index, then compute each
     row's Min_FU configuration (one more solve per row) the same way. *)
  let ds = Array.of_list (deadlines g table) in
  let algos = Array.of_list algorithms in
  let na = Array.length algos in
  let cells =
    Array.init
      (Array.length ds * na)
      (fun i -> (ds.(i / na), algos.(i mod na)))
  in
  let cell_costs =
    Par.Pool.map_array pool
      (fun (deadline, algo) ->
        Obs.Span.with_
          (Printf.sprintf "cell:%s:%s:T=%d" name
             (Synthesis.algorithm_name algo)
             deadline)
        @@ fun () ->
        (* HETSCHED_VALIDATE is folded in by Synthesis.assign: every grid
           cell is audited with the independent Phase-1 oracle, in 1- and
           multi-domain runs alike (the flag is read inside the pool
           task) *)
        run_cell (Synthesis.request ~algorithm:algo ~deadline g table))
      cells
  in
  let row_costs =
    Array.init (Array.length ds) (fun di ->
        List.mapi (fun ai algo -> (algo, cell_costs.((di * na) + ai))) algorithms)
  in
  let configs =
    Par.Pool.map_array pool
      (fun di ->
        let deadline = ds.(di) in
        Obs.Span.with_ (Printf.sprintf "row_config:%s:T=%d" name deadline)
        @@ fun () ->
        match List.rev row_costs.(di) with
        | (last_algo, Some _) :: _ ->
            let resp =
              Synthesis.solve
                (Synthesis.request ~algorithm:last_algo ~deadline g table)
            in
            (* keep the grid's fail-fast contract: a corrupt or crashed
               per-row configuration solve raises instead of degrading to
               a silent None *)
            Check.Violation.raise_if_failed
              {
                Check.Violation.checker = "Core.Synthesis.solve";
                violations = resp.Synthesis.violations;
                checked = 0;
              };
            (match resp.Synthesis.status with
            | Synthesis.Error msg -> failwith msg
            | _ -> ());
            Option.map (fun r -> r.Synthesis.config) resp.Synthesis.result
        | _ -> None)
      (Array.init (Array.length ds) Fun.id)
  in
  let rows =
    List.init (Array.length ds) (fun di ->
        { deadline = ds.(di); costs = row_costs.(di); config = configs.(di) })
  in
  let average_reduction =
    let reductions algo =
      List.filter_map
        (fun r ->
          match (List.assoc Synthesis.Greedy r.costs, List.assoc algo r.costs) with
          | Some g, Some c when g > 0 ->
              Some (100.0 *. float_of_int (g - c) /. float_of_int g)
          | _ -> None)
        rows
    in
    List.filter_map
      (fun algo ->
        if algo = Synthesis.Greedy then None
        else
          match reductions algo with
          | [] -> Some (algo, 0.0)
          | rs ->
              Some
                (algo, List.fold_left ( +. ) 0.0 rs /. float_of_int (List.length rs)))
      algorithms
  in
  { name; nodes = Dfg.Graph.num_nodes g; duplicated; rows; average_reduction }

let table1_algorithms =
  Synthesis.[ Greedy; Once; Repeat; Tree ]

let table2_algorithms = Synthesis.[ Greedy; Once; Repeat ]

let seed_of_name name =
  (* stable small seed per benchmark so tables don't shift when the list
     order changes *)
  String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name

let table1 () =
  List.map
    (fun (name, g) ->
      run_benchmark ~name ~seed:(seed_of_name name)
        ~algorithms:table1_algorithms g)
    (Workloads.Filters.trees ())

let table2 () =
  List.map
    (fun (name, g) ->
      run_benchmark ~name ~seed:(seed_of_name name)
        ~algorithms:table2_algorithms g)
    (Workloads.Filters.dags ())

let render_report report =
  let algos = List.map fst (List.nth report.rows 0).costs in
  let header =
    "T"
    :: List.concat_map
         (fun a ->
           let n = Synthesis.algorithm_name a in
           if a = Synthesis.Greedy then [ n ] else [ n; "%" ])
         algos
    @ [ "Config" ]
  in
  let render_row r =
    let greedy = List.assoc Synthesis.Greedy r.costs in
    string_of_int r.deadline
    :: List.concat_map
         (fun (a, cost) ->
           let cell = Report.cost_cell cost in
           if a = Synthesis.Greedy then [ cell ]
           else
             [
               cell;
               (match cost with
               | Some c -> Report.percent ~baseline:greedy ~value:c
               | None -> "-");
             ])
         r.costs
    @ [ (match r.config with Some c -> Sched.Config.to_string c | None -> "-") ]
  in
  let title =
    Printf.sprintf "%s (%d nodes, %d duplicated)" report.name report.nodes
      report.duplicated
  in
  let body = Report.render ~title ~header (List.map render_row report.rows) in
  let avg =
    String.concat "  "
      (List.map
         (fun (a, r) ->
           Printf.sprintf "%s: %.1f%%" (Synthesis.algorithm_name a) r)
         report.average_reduction)
  in
  body ^ "Average reduction vs Greedy  " ^ avg ^ "\n"

(* ------------------------------------------------------------------ *)
(* Figures 1-3: the motivating example                                  *)
(* ------------------------------------------------------------------ *)

let motivational_graph () =
  let b = Dfg.Builder.create () in
  let v1 = Dfg.Builder.add_node b ~name:"v1" ~op:"mul" in
  let v2 = Dfg.Builder.add_node b ~name:"v2" ~op:"mul" in
  let v3 = Dfg.Builder.add_node b ~name:"v3" ~op:"add" in
  let v4 = Dfg.Builder.add_node b ~name:"v4" ~op:"add" in
  let v5 = Dfg.Builder.add_node b ~name:"v5" ~op:"sub" in
  Dfg.Builder.add_edge b ~src:v1 ~dst:v3;
  Dfg.Builder.add_edge b ~src:v2 ~dst:v3;
  Dfg.Builder.add_edge b ~src:v3 ~dst:v4;
  Dfg.Builder.add_edge b ~src:v3 ~dst:v5;
  Dfg.Builder.finish b

let motivational_table () =
  Fulib.Table.make ~library:Fulib.Library.standard3
    ~time:[| [| 2; 4; 6 |]; [| 2; 3; 5 |]; [| 1; 2; 4 |]; [| 1; 2; 3 |]; [| 1; 3; 4 |] |]
    ~cost:[| [| 10; 6; 2 |]; [| 12; 8; 3 |]; [| 6; 3; 1 |]; [| 5; 3; 1 |]; [| 8; 4; 2 |] |]

let motivational () =
  let g = motivational_graph () in
  let table = motivational_table () in
  let deadline = 10 in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  add "Motivating example (paper Figures 1-3)";
  add "DFG: v1->v3, v2->v3, v3->v4, v3->v5; timing constraint T = %d" deadline;
  add "";
  add "%s" (Format.asprintf "%a" (Fulib.Table.pp ~names:(Dfg.Graph.names g)) table);
  add "";
  let describe label (r : Synthesis.result) =
    add "%s (Figure 2%s):" (Synthesis.algorithm_name r.Synthesis.algorithm) label;
    add "  cost %d, makespan %d, configuration %s (naive: %s, lower bound %s)"
      r.Synthesis.cost r.Synthesis.makespan
      (Sched.Config.to_string r.Synthesis.config)
      (Sched.Config.to_string
         (Sched.Min_resource.naive_config table r.Synthesis.assignment))
      (Sched.Config.to_string r.Synthesis.lower_bound);
    add "%s"
      (Format.asprintf "  %a"
         (Assign.Assignment.pp ~names:(Dfg.Graph.names g)
            ~library:(Fulib.Table.library table))
         r.Synthesis.assignment);
    add "%s"
      (Format.asprintf "%a" (Sched.Schedule.pp ~graph:g ~table) r.Synthesis.schedule)
  in
  let solved algorithm =
    (Synthesis.solve (Synthesis.request ~algorithm ~deadline g table))
      .Synthesis.result
  in
  (match solved Synthesis.Greedy with
  | Some r -> describe "(a): greedy" r
  | None -> add "greedy: infeasible");
  add "";
  (match solved Synthesis.Exact with
  | Some r -> describe "(b): optimal" r
  | None -> add "optimal: infeasible");
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_expand () =
  let rows =
    List.map
      (fun (name, g) ->
        let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
        let deadline = deadline_at ~name g table 2 in
        let forward = Dfg.Expand.expand g in
        let transposed = Dfg.Expand.expand_transposed g in
        let cost orientation =
          match
            Assign.Dfg_assign.once_oriented orientation g table ~deadline
          with
          | Some a -> string_of_int (Assign.Assignment.total_cost table a)
          | None -> "-"
        in
        [
          name;
          string_of_int (Dfg.Graph.num_nodes g);
          string_of_int (Array.length forward.Dfg.Expand.origin);
          string_of_int (Array.length transposed.Dfg.Expand.origin);
          cost Assign.Dfg_assign.Forward;
          cost Assign.Dfg_assign.Transposed;
        ])
      (Workloads.Filters.all ())
  in
  Report.render ~title:"Ablation: expand G vs transpose(G) (Once cost at T = 1.2*Tmin)"
    ~header:[ "benchmark"; "nodes"; "tree(G)"; "tree(G^T)"; "cost fwd"; "cost transp" ]
    rows

let ablation_order () =
  let rows =
    List.concat_map
      (fun (name, g) ->
        let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
        List.map
          (fun deadline ->
            let cost order =
              match
                Assign.Dfg_assign.repeat_with_order ~order g table ~deadline
              with
              | Some a -> string_of_int (Assign.Assignment.total_cost table a)
              | None -> "-"
            in
            [
              name;
              string_of_int deadline;
              cost `By_copies;
              cost `By_id;
              cost `Reverse;
            ])
          (deadlines g table))
      (Workloads.Filters.dags ())
  in
  Report.render
    ~title:"Ablation: Repeat fixing order (by copy count vs by id vs reversed)"
    ~header:[ "benchmark"; "T"; "by-copies"; "by-id"; "reversed" ]
    rows

(* ------------------------------------------------------------------ *)
(* Extension studies                                                    *)
(* ------------------------------------------------------------------ *)

let extension_refinement () =
  let rows =
    List.concat_map
      (fun (name, g) ->
        let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
        let ds = deadlines g table in
        List.filter_map
          (fun deadline ->
            let cost algo =
              match
                run_cell (Synthesis.request ~algorithm:algo ~deadline g table)
              with
              | Some c -> string_of_int c
              | None -> "-"
            in
            let exact =
              if Dfg.Graph.num_nodes g > 20 then "n/a"
              else
                match Assign.Exact.solve ~budget:2_000_000 g table ~deadline with
                | Some (_, c) -> string_of_int c
                | None -> "-"
                | exception Assign.Exact.Budget_exhausted -> "n/a"
            in
            Some
              [
                name;
                string_of_int deadline;
                cost Synthesis.Repeat;
                cost Synthesis.Repeat_refined;
                exact;
              ])
          [ nth_deadline ~name ds 1; nth_deadline ~name ds 3 ])
      (Workloads.Filters.all ())
  in
  Report.render
    ~title:
      "Extension: simulated-annealing refinement (Repeat vs Repeat_refined vs exact optimum)"
    ~header:[ "benchmark"; "T"; "Repeat"; "Repeat+SA"; "Optimal" ]
    rows

let extension_schedulers () =
  let rows =
    List.filter_map
      (fun (name, g) ->
        let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
        let deadline = deadline_at ~name g table 2 in
        let run scheduler =
          match
            (Synthesis.solve
               (Synthesis.request ~scheduler ~algorithm:Synthesis.Repeat
                  ~deadline g table))
              .Synthesis.result
          with
          | Some r ->
              Printf.sprintf "%s (%d)"
                (Sched.Config.to_string r.Synthesis.config)
                (Sched.Config.total r.Synthesis.config)
          | None -> "-"
        in
        Some
          [
            name;
            string_of_int deadline;
            run Synthesis.List_scheduling;
            run Synthesis.Force_directed;
          ])
      (Workloads.Filters.all ())
  in
  Report.render
    ~title:
      "Extension: Min_FU list scheduling vs force-directed (configuration and total FUs)"
    ~header:[ "benchmark"; "T"; "list (total)"; "force-directed (total)" ]
    rows

let extension_library_size () =
  let benchmarks =
    [ ("diffeq", Workloads.Filters.diffeq ()); ("elliptic", Workloads.Filters.elliptic ()) ]
  in
  let rows =
    List.concat_map
      (fun (name, g) ->
        List.map
          (fun levels ->
            let rng = Workloads.Prng.create (seed_of_name name) in
            let table = Workloads.Tables.dvs rng ~levels g in
            let tmin = Synthesis.min_deadline g table in
            let deadline = tmin + (tmin / 2) in
            let cost =
              match
                run_cell
                  (Synthesis.request ~algorithm:Synthesis.Repeat ~deadline g
                     table)
              with
              | Some c -> string_of_int c
              | None -> "-"
            in
            [ name; string_of_int levels; string_of_int deadline; cost ])
          [ 1; 2; 3; 4; 5 ])
      benchmarks
  in
  Report.render
    ~title:
      "Extension: energy vs number of DVS levels (Repeat, T = 1.5*Tmin; same per-node bases across levels)"
    ~header:[ "benchmark"; "levels"; "T"; "energy" ]
    rows

let extension_min_config () =
  let rows =
    List.filter_map
      (fun (name, g) ->
        if Dfg.Graph.num_nodes g > 20 then None
        else begin
          let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
          let deadline = deadline_at ~name g table 2 in
          match
            (Synthesis.solve
               (Synthesis.request ~algorithm:Synthesis.Repeat ~deadline g
                  table))
              .Synthesis.result
          with
          | None -> None
          | Some r ->
              let exact =
                match
                  Sched.Min_config.solve ~budget:5_000_000 g table
                    r.Synthesis.assignment ~deadline
                with
                | Some (c, _, total) ->
                    Printf.sprintf "%s (%d)" (Sched.Config.to_string c) total
                | None -> "-"
                | exception Sched.Exact_schedule.Budget_exhausted -> "n/a"
              in
              Some
                [
                  name;
                  string_of_int deadline;
                  Printf.sprintf "%s (%d)"
                    (Sched.Config.to_string r.Synthesis.config)
                    (Sched.Config.total r.Synthesis.config);
                  exact;
                ]
        end)
      (Workloads.Filters.all ())
  in
  Report.render
    ~title:
      "Extension: Min_FU_Scheduling configuration vs the exact minimum (total FUs)"
    ~header:[ "benchmark"; "T"; "list scheduling"; "exact minimum" ]
    rows

let extension_heuristic_ladder () =
  let algos =
    Synthesis.[ Greedy; Greedy_iterative; Once; Repeat; Beam; Repeat_refined ]
  in
  let rows =
    List.map
      (fun (name, g) ->
        let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
        let deadline = deadline_at ~name g table 2 in
        name :: string_of_int deadline
        :: List.map
             (fun algo ->
               match
                 run_cell
                   (Synthesis.request ~algorithm:algo ~deadline g table)
               with
               | Some c -> string_of_int c
               | None -> "-")
             algos)
      (Workloads.Filters.dags ())
  in
  Report.render
    ~title:"Extension: the heuristic ladder (system cost at T = 1.2*Tmin)"
    ~header:
      ("benchmark" :: "T" :: List.map Synthesis.algorithm_name algos)
    rows

let seed_sensitivity () =
  let seeds = List.init 10 (fun i -> 1000 + (137 * i)) in
  let rows =
    List.map
      (fun (name, g) ->
        let reductions =
          List.filter_map
            (fun seed ->
              (* each seed draws its own table, so the ladder is per seed *)
              let table = Workloads.Tables.seeded ~seed g in
              let deadline = deadline_at ~name g table 2 in
              match
                ( run_cell
                    (Synthesis.request ~algorithm:Synthesis.Greedy ~deadline g
                       table),
                  run_cell
                    (Synthesis.request ~algorithm:Synthesis.Repeat ~deadline g
                       table) )
              with
              | Some gc, Some rc ->
                  if gc > 0 then
                    Some (100.0 *. float_of_int (gc - rc) /. float_of_int gc)
                  else None
              | _ -> None)
            seeds
        in
        let count = float_of_int (List.length reductions) in
        let mean = List.fold_left ( +. ) 0.0 reductions /. count in
        let mn = List.fold_left min infinity reductions in
        let mx = List.fold_left max neg_infinity reductions in
        let var =
          List.fold_left (fun acc r -> acc +. ((r -. mean) ** 2.0)) 0.0 reductions
          /. count
        in
        [
          name;
          string_of_int (List.length reductions);
          Printf.sprintf "%.1f%%" mean;
          Printf.sprintf "%.1f%%" (sqrt var);
          Printf.sprintf "%.1f%%" mn;
          Printf.sprintf "%.1f%%" mx;
        ])
      (Workloads.Filters.dags ())
  in
  Report.render
    ~title:
      "Robustness: Repeat's % reduction vs greedy across 10 random table seeds (T = 1.2*Tmin)"
    ~header:[ "benchmark"; "seeds"; "mean"; "stddev"; "min"; "max" ]
    rows

let extension_throughput () =
  let g = Workloads.Filters.lattice ~stages:4 in
  let table = Workloads.Tables.seeded ~seed:(seed_of_name "4-stage lattice") g in
  let cheapest =
    Assign.Assignment.total_cost table (Assign.Assignment.all_cheapest table)
  in
  let dearest =
    Assign.Assignment.total_cost table (Assign.Assignment.all_fastest table)
  in
  let budgets =
    List.init 5 (fun i -> cheapest + (i * (dearest - cheapest) / 4))
  in
  let rows =
    List.filter_map
      (fun budget ->
        match Assign.Dual.for_tree g table ~budget with
        | None -> Some [ string_of_int budget; "-"; "-"; "-"; "-" ]
        | Some (makespan, a) -> (
            match Sched.Min_resource.run g table a ~deadline:makespan with
            | None -> None
            | Some { Sched.Min_resource.config; _ } ->
                let rotated =
                  match
                    Sched.Rotation.run g table a ~config
                      ~rotations:(2 * Dfg.Graph.num_nodes g)
                  with
                  | Some r -> string_of_int r.Sched.Rotation.period
                  | None -> "-"
                in
                Some
                  [
                    string_of_int budget;
                    string_of_int (Assign.Assignment.total_cost table a);
                    string_of_int makespan;
                    Sched.Config.to_string config;
                    rotated;
                  ]))
      budgets
  in
  Report.render
    ~title:
      "Extension: throughput under an energy budget (4-stage lattice; dual solve, then rotation)"
    ~header:[ "budget"; "cost used"; "min makespan"; "config"; "rotated period" ]
    rows

let extension_rotation () =
  let rows =
    List.filter_map
      (fun (name, g) ->
        let table = Workloads.Tables.seeded ~seed:(seed_of_name name) g in
        match
          (Synthesis.solve
             (Synthesis.request ~algorithm:Synthesis.Repeat
                ~deadline:(deadline_at ~name g table 2) g table))
            .Synthesis.result
        with
        | None -> None
        | Some r ->
            let a = r.Synthesis.assignment in
            let config = r.Synthesis.config in
            let static =
              match Sched.Resource_constrained.makespan g table a ~config with
              | Some l -> l
              | None -> -1
            in
            let rotated =
              match Sched.Rotation.run g table a ~config ~rotations:(2 * Dfg.Graph.num_nodes g) with
              | Some res -> res.Sched.Rotation.period
              | None -> -1
            in
            let bound =
              Dfg.Cyclic.iteration_bound g ~time:(fun v ->
                  Fulib.Table.time table ~node:v ~ftype:a.(v))
            in
            Some
              [
                name;
                Sched.Config.to_string config;
                string_of_int static;
                string_of_int rotated;
                Printf.sprintf "%.1f" bound;
              ])
      (Workloads.Filters.all ())
  in
  Report.render
    ~title:
      "Extension: rotation scheduling (static DAG schedule vs rotated cycle period vs iteration bound)"
    ~header:[ "benchmark"; "config"; "static"; "rotated"; "iter. bound" ]
    rows
