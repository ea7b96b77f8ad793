(* Benchmark harness.

   Running this executable (1) regenerates every table and figure of the
   paper — the reproduction output — and (2) times each experiment's
   algorithms with Bechamel, one Test per table/figure plus scaling and
   ablation series. See DESIGN.md §4 for the experiment index. *)

open Bechamel
open Toolkit

let lib3 = Fulib.Library.standard3

let table_for ~seed g =
  let rng = Workloads.Prng.create seed in
  Workloads.Tables.for_graph rng ~library:lib3 g

let mid_deadline g tbl =
  let tmin = Core.Synthesis.min_deadline g tbl in
  tmin + (tmin / 5)

(* --- Figure 1-3: the motivating example ----------------------------- *)

let fig_tests =
  let graph =
    lazy
      (let b = Dfg.Builder.create () in
       let v1 = Dfg.Builder.add_node b ~name:"v1" ~op:"mul" in
       let v2 = Dfg.Builder.add_node b ~name:"v2" ~op:"mul" in
       let v3 = Dfg.Builder.add_node b ~name:"v3" ~op:"add" in
       let v4 = Dfg.Builder.add_node b ~name:"v4" ~op:"add" in
       let v5 = Dfg.Builder.add_node b ~name:"v5" ~op:"sub" in
       Dfg.Builder.add_edge b ~src:v1 ~dst:v3;
       Dfg.Builder.add_edge b ~src:v2 ~dst:v3;
       Dfg.Builder.add_edge b ~src:v3 ~dst:v4;
       Dfg.Builder.add_edge b ~src:v3 ~dst:v5;
       let gr = Dfg.Builder.finish b in
       (gr, table_for ~seed:12 gr))
  in
  Test.make_grouped ~name:"fig1-3"
    [
      Test.make ~name:"exact-assignment"
        (Staged.stage (fun () ->
             let gr, tbl = Lazy.force graph in
             Assign.Exact.solve gr tbl ~deadline:10));
      Test.make ~name:"min-resource-schedule"
        (Staged.stage (fun () ->
             let gr, tbl = Lazy.force graph in
             let a = Assign.Assignment.all_fastest tbl in
             Sched.Min_resource.run gr tbl a ~deadline:10));
    ]

(* --- Tables 1 and 2: one test per benchmark x algorithm -------------- *)

let algo_test g tbl ~deadline algo =
  Test.make
    ~name:(String.lowercase_ascii (Core.Synthesis.algorithm_name algo))
    (Staged.stage (fun () -> Assign.Solve.dispatch algo g tbl ~deadline))

let benchmark_group algorithms (name, g) =
  let seed =
    String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name
  in
  let tbl = table_for ~seed g in
  let deadline = mid_deadline g tbl in
  Test.make_grouped ~name (List.map (algo_test g tbl ~deadline) algorithms)

let table1_tests =
  Test.make_grouped ~name:"table1"
    (List.map
       (benchmark_group Core.Synthesis.[ Greedy; Once; Repeat; Tree ])
       (Workloads.Filters.trees ()))

let table2_tests =
  Test.make_grouped ~name:"table2"
    (List.map
       (benchmark_group Core.Synthesis.[ Greedy; Once; Repeat ])
       (Workloads.Filters.dags ()))

(* --- Phase 2 on the largest benchmark -------------------------------- *)

let sched_tests =
  let g = Workloads.Filters.elliptic () in
  let tbl = table_for ~seed:7 g in
  let deadline = mid_deadline g tbl in
  let a =
    match Assign.Dfg_assign.repeat g tbl ~deadline with
    | Some a -> a
    | None -> failwith "bench: elliptic assignment infeasible"
  in
  Test.make_grouped ~name:"phase2-elliptic"
    [
      Test.make ~name:"lower-bound"
        (Staged.stage (fun () -> Sched.Lower_bound.per_type g tbl a ~deadline));
      Test.make ~name:"min-resource"
        (Staged.stage (fun () -> Sched.Min_resource.run g tbl a ~deadline));
      Test.make ~name:"asap-alap"
        (Staged.stage (fun () ->
             ( Sched.Asap_alap.asap g tbl a,
               Sched.Asap_alap.alap g tbl a ~deadline )));
    ]

(* --- Ablation: expansion orientation --------------------------------- *)

let ablation_tests =
  let g = Workloads.Filters.elliptic () in
  Test.make_grouped ~name:"ablation-expand"
    [
      Test.make ~name:"forward" (Staged.stage (fun () -> Dfg.Expand.expand g));
      Test.make ~name:"transposed"
        (Staged.stage (fun () -> Dfg.Expand.expand_transposed g));
    ]

(* --- Extensions: refinement, force-directed, dual, beam, RTL --------- *)

let extension_tests =
  let g = Workloads.Filters.rls_laguerre () in
  let tbl = table_for ~seed:11 g in
  let deadline = mid_deadline g tbl in
  let volterra = Workloads.Filters.volterra () in
  let volterra_tbl = table_for ~seed:13 volterra in
  Test.make_grouped ~name:"extensions"
    [
      Test.make ~name:"repeat-refined"
        (Staged.stage (fun () ->
             Assign.Local_search.repeat_plus g tbl ~deadline ~seed:1));
      Test.make ~name:"force-directed"
        (Staged.stage (fun () ->
             match Assign.Dfg_assign.repeat g tbl ~deadline with
             | Some a -> Sched.Force_directed.run g tbl a ~deadline
             | None -> None));
      Test.make ~name:"dual-tree"
        (Staged.stage (fun () ->
             Assign.Dual.for_tree volterra volterra_tbl ~budget:250));
      Test.make ~name:"unfold-x4"
        (Staged.stage (fun () -> Dfg.Unfold.unfold g ~factor:4));
      Test.make ~name:"retime-min-period"
        (Staged.stage (fun () ->
             Dfg.Cyclic.min_cycle_period g ~time:(Fulib.Table.min_time tbl)));
      Test.make ~name:"beam-16"
        (Staged.stage (fun () -> Assign.Beam.solve g tbl ~deadline));
      (* the row keeps its name for trajectory continuity; it lowers the
         unshared style, one FU instance per operation *)
      Test.make ~name:"verilog-emit"
        (Staged.stage
           (let req =
              lazy
                (match Assign.Dfg_assign.repeat g tbl ~deadline with
                | Some a -> (
                    match Sched.Min_resource.run g tbl a ~deadline with
                    | Some { Sched.Min_resource.schedule; _ } ->
                        Rtl.Backend.request ~style:Rtl.Backend.Unshared
                          ~testbench_iterations:0 g tbl schedule
                    | None -> failwith "bench: scheduling failed")
                | None -> failwith "bench: assignment failed")
            in
            fun () -> Rtl.Backend.lower (Lazy.force req)));
    ]

(* --- Scaling: algorithm run time vs graph size ----------------------- *)

let scaling_instance n =
  let rng = Workloads.Prng.create (1000 + n) in
  let g = Workloads.Random_dfg.random_tree rng ~n ~max_children:3 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
  let deadline = mid_deadline g tbl in
  (g, tbl, deadline)

let scaling_dag_instance n =
  let rng = Workloads.Prng.create (2000 + n) in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 5) in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
  let deadline = mid_deadline g tbl in
  (g, tbl, deadline)

let scaling_tests =
  Test.make_grouped ~name:"scaling"
    [
      Test.make_indexed ~name:"tree-assign" ~args:[ 50; 100; 200 ] (fun n ->
          let g, tbl, deadline = scaling_instance n in
          Staged.stage (fun () -> Assign.Tree_assign.solve g tbl ~deadline));
      Test.make_indexed ~name:"repeat" ~args:[ 20; 40; 80 ] (fun n ->
          let g, tbl, deadline = scaling_dag_instance n in
          Staged.stage (fun () -> Assign.Dfg_assign.repeat g tbl ~deadline));
      Test.make_indexed ~name:"greedy" ~args:[ 20; 40; 80 ] (fun n ->
          let g, tbl, deadline = scaling_dag_instance n in
          Staged.stage (fun () -> Assign.Greedy.solve g tbl ~deadline));
    ]

(* --- Kernel: flat/incremental solver layer vs reference --------------- *)

(* A scaling DAG with its Repeat assignment: the phase-2 kernels' input. *)
let scaling_dag_assigned n =
  let g, tbl, deadline = scaling_dag_instance n in
  match Assign.Dfg_assign.repeat g tbl ~deadline with
  | Some a -> (g, tbl, a, deadline)
  | None -> failwith "bench: kernel assignment infeasible"

(* Measures what the solver-context refactor bought on the SCALE sweep:
   incremental DFG_Assign_Repeat (one Tree_kernel, re-solves per pin that
   climb only while a row changes) against the original full-re-solve
   Repeat, and the flat tree DP against the list-based reference, on the
   random-DAG/tree scaling instances up to n = 200; plus the phase-2
   kernels (Lower_Bound_FU, Min_FU_Scheduling with threaded frames) and
   the tree choice on the same DAGs. *)
let kernel_tests =
  Test.make_grouped ~name:"kernel"
    [
      Test.make_indexed ~name:"repeat-incremental" ~args:[ 50; 100; 200 ]
        (fun n ->
          let g, tbl, deadline = scaling_dag_instance n in
          Staged.stage (fun () -> Assign.Dfg_assign.repeat g tbl ~deadline));
      Test.make_indexed ~name:"repeat-reference" ~args:[ 50; 100; 200 ]
        (fun n ->
          let g, tbl, deadline = scaling_dag_instance n in
          Staged.stage (fun () ->
              Oracle.Dfg_assign.repeat_reference g tbl ~deadline));
      Test.make_indexed ~name:"tree-flat" ~args:[ 200 ] (fun n ->
          let g, tbl, deadline = scaling_instance n in
          Staged.stage (fun () ->
              Assign.Tree_assign.solve_with_cost g tbl ~deadline));
      Test.make_indexed ~name:"tree-reference" ~args:[ 200 ] (fun n ->
          let g, tbl, deadline = scaling_instance n in
          Staged.stage (fun () ->
              Oracle.Tree_assign.solve_with_cost_reference g tbl ~deadline));
      Test.make_indexed ~name:"frames" ~args:[ 200 ] (fun n ->
          let g, tbl, a, deadline = scaling_dag_assigned n in
          Staged.stage (fun () -> Sched.Asap_alap.frames g tbl a ~deadline));
      Test.make_indexed ~name:"lower-bound" ~args:[ 50; 100; 200 ] (fun n ->
          let g, tbl, a, deadline = scaling_dag_assigned n in
          let frames = Sched.Asap_alap.frames g tbl a ~deadline in
          Staged.stage (fun () ->
              Sched.Lower_bound.per_type ?frames g tbl a ~deadline));
      Test.make_indexed ~name:"min-resource" ~args:[ 50; 100; 200 ] (fun n ->
          let g, tbl, a, deadline = scaling_dag_assigned n in
          let frames = Sched.Asap_alap.frames g tbl a ~deadline in
          Staged.stage (fun () ->
              Sched.Min_resource.run ?frames g tbl a ~deadline));
      Test.make_indexed ~name:"choose-tree" ~args:[ 50; 100; 200 ] (fun n ->
          let g, _, _ = scaling_dag_instance n in
          Staged.stage (fun () -> Assign.Dfg_assign.choose_tree g));
    ]

(* --- Parallel fan-out layer: sequential vs pooled --------------------- *)

(* Each "-par" test has a "-seq" sibling running the identical computation
   on a 1-domain pool (the exact sequential fallback); the JSON emitter
   pairs them up into speedup_vs_seq. The "-par" side uses the global pool,
   so HETSCHED_DOMAINS / --domains controls its width. *)
let par_tests =
  let seq_pool = lazy (Par.Pool.create ~domains:1 ()) in
  let grid =
    lazy
      (let g = Workloads.Filters.elliptic () in
       (g, "elliptic"))
  in
  let dag80 = lazy (scaling_dag_instance 80) in
  let frontier_instance =
    lazy
      (let g = Workloads.Filters.diffeq () in
       let tbl = table_for ~seed:29 g in
       let tmin = Core.Synthesis.min_deadline g tbl in
       (g, tbl, tmin + (tmin / 2)))
  in
  let run_grid pool =
    let g, name = Lazy.force grid in
    Core.Experiments.run_benchmark ~pool ~name
      ~seed:(String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name)
      ~algorithms:Core.Synthesis.[ Greedy; Once; Repeat ]
      g
  in
  let run_search pool =
    let g, tbl, deadline = Lazy.force dag80 in
    Assign.Dfg_assign.repeat_search ~pool g tbl ~deadline
  in
  let run_frontier pool =
    let g, tbl, max_deadline = Lazy.force frontier_instance in
    Core.Frontier.trace ~pool g tbl ~max_deadline
  in
  let run_batch pool =
    let rng = Workloads.Prng.create 424242 in
    Workloads.Random_dfg.batch_dags ~pool rng ~count:16 ~n:100 ~extra_edges:20
  in
  let pair name f =
    [
      Test.make ~name:(name ^ "-seq")
        (Staged.stage (fun () -> f (Lazy.force seq_pool)));
      Test.make ~name:(name ^ "-par")
        (Staged.stage (fun () -> f (Par.Pool.global ())));
    ]
  in
  Test.make_grouped ~name:"par"
    (List.concat
       [
         pair "grid" run_grid;
         pair "repeat-search" run_search;
         pair "frontier" run_frontier;
         pair "batch-dfg" run_batch;
       ])

(* --- Serve layer: request facade, cache hit vs cold solve -------------- *)

(* One request line of the daemon's [inline-dag] shape: a 100-node random
   DAG with 33 extra edges, its standard3 time/cost table inline, about
   5.7 KB. *)
let inline_line =
  lazy
    (let module J = Obs.Json in
     let rng = Workloads.Prng.create 100 in
     let g = Workloads.Random_dfg.random_dag rng ~n:100 ~extra_edges:33 in
     let tbl =
       Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:100
     in
     let ints l = J.List (List.map (fun v -> J.Int v) l) in
     let rows cell =
       J.List
         (List.init 100 (fun node ->
              ints (List.init 3 (fun ftype -> cell tbl ~node ~ftype))))
     in
     J.to_string
       (J.Obj
          [
            ("id", J.Int 1);
            ( "graph",
              J.Obj
                [
                  ( "nodes",
                    J.List
                      (List.init 100 (fun v ->
                           J.Obj
                             [
                               ("name", J.String (Dfg.Graph.name g v));
                               ("op", J.String (Dfg.Graph.op g v));
                             ])) );
                  ( "edges",
                    J.List
                      (List.map
                         (fun (e : Dfg.Graph.edge) -> ints [ e.src; e.dst; e.delay ])
                         (Dfg.Graph.edges g)) );
                ] );
            ( "table",
              J.Obj
                [
                  ("types", J.List [ J.String "P1"; J.String "P2"; J.String "P3" ]);
                  ("time", rows Fulib.Table.time);
                  ("cost", rows Fulib.Table.cost);
                ] );
            ("deadline_factor", J.Float 1.3);
            ("algorithm", J.String "repeat");
          ]))

(* The cache hammer: find-or-churn-store steps against a full 256-entry
   cache. Every eighth step stores a fresh key, which evicts the
   least-recently-used entry; the others probe the 16 hot keys in turn,
   counting probes, not steps, so each hot key is read equally often.
   The hot keys are stored after the fill and probes keep them recent,
   so the churn never evicts them. Keys are 32 bytes and entries hold a
   solve line's body, no record. One call runs a batch of 200 steps,
   so a sample sits above bench_gate's 10-us --min-ns floor; the row
   divided by 200 is the cost of one step. *)
let cache_hammer =
  let capacity = 256 and churn_every = 8 and batch = 200 in
  let keys tag count =
    Array.init count (fun i ->
        Digest.to_hex (Digest.string (Printf.sprintf "%s-%d" tag i)))
  in
  let g = Workloads.Filters.diffeq () in
  let tbl = table_for ~seed:7 g in
  let resp =
    Core.Synthesis.solve
      (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat
         ~deadline:(mid_deadline g tbl) g tbl)
  in
  let body = Serve.Jsonl.response_body resp in
  let cache = Serve.Cache.create ~entries:capacity () in
  let store key = Serve.Cache.store cache key ~body ~record:false resp in
  let hot = keys "hot" 16 and churn = keys "churn" 4096 in
  (* built eagerly: a lazy fill would land in the first timed sample *)
  Array.iter store (Array.append (keys "fill" capacity) hot);
  let step = ref 0 in
  Staged.stage (fun () ->
      for _ = 1 to batch do
        let k = !step in
        step := k + 1;
        if k mod churn_every = churn_every - 1 then
          store churn.(k / churn_every mod Array.length churn)
        else
          ignore
            (Serve.Cache.find cache ~record:false
               hot.((k - (k / churn_every)) mod Array.length hot))
      done)

(* The serve bench group prices the new entry points: a full
   Core.Synthesis.solve through the request facade (cold), the same
   request answered by a pre-warmed Serve.Cache (hit — the key, a
   hashtable probe and the splice of the stored body behind its id), the
   key (the request's encoding) itself, and the resident
   catalogue resolving a repeated benchmark name (what the daemon does for
   every ["benchmark"] line before it can even probe the cache). The
   inline rows split turning an [inline-dag] line into a request: the JSON
   parse, then the decode of the parsed tree into graph, table and
   request. *)
let serve_tests =
  let instance =
    lazy
      (let g = Workloads.Filters.elliptic () in
       let tbl = table_for ~seed:7 g in
       let deadline = mid_deadline g tbl in
       Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline g tbl)
  in
  let warmed =
    lazy
      (let req = Lazy.force instance in
       let resp = Core.Synthesis.solve req in
       let cache = Serve.Cache.create ~entries:16 () in
       Serve.Cache.store cache (Serve.Cache.key req)
         ~body:(Serve.Jsonl.response_body resp) ~record:false resp;
       (cache, req))
  in
  Test.make_grouped ~name:"serve"
    [
      Test.make ~name:"solve-cold"
        (Staged.stage (fun () ->
             Core.Synthesis.solve (Lazy.force instance)));
      Test.make ~name:"cache-hit"
        (Staged.stage (fun () ->
             let cache, req = Lazy.force warmed in
             match Serve.Cache.find cache (Serve.Cache.key req) ~record:false with
             | Some (body, _) -> Serve.Jsonl.splice ~id:(Obs.Json.Int 1) body
             | None -> failwith "serve/cache-hit: not warmed"));
      Test.make ~name:"digest"
        (Staged.stage (fun () -> Serve.Cache.key (Lazy.force instance)));
      Test.make ~name:"lookup"
        (Staged.stage (fun () -> Workloads.Catalogue.lookup "elliptic" ~seed:7));
      Test.make ~name:"parse-inline"
        (Staged.stage (fun () -> Obs.Json.parse (Lazy.force inline_line)));
      Test.make ~name:"decode-inline"
        (let json =
           lazy
             (match Obs.Json.parse (Lazy.force inline_line) with
             | Ok json -> json
             | Error e -> failwith ("serve/decode-inline: " ^ e))
         in
         Staged.stage (fun () ->
             Serve.Jsonl.line_of_json ~line:1 (Lazy.force json)));
      Test.make ~name:"cache-hot" cache_hammer;
    ]

(* --- Memory dimension: capacity pruning vs unconstrained solves ------- *)

(* Prices the memory model: the same sized random DAG solved with unbounded
   capacities (the pre-memory fast path — must stay at its old cost), with
   the tight preset (mask construction + residual pruning), and the two
   accounting primitives the verdict and the oracle lean on. *)
let mem_tests =
  let instance =
    lazy
      (let rng = Workloads.Prng.create 31415 in
       let g = Workloads.Random_dfg.random_dag rng ~n:60 ~extra_edges:12 in
       let g = Workloads.Random_dfg.with_sizes rng g in
       let tbl = table_for ~seed:31 g in
       let deadline = mid_deadline g tbl in
       (g, tbl, Workloads.Tables.mem_tight g tbl, deadline))
  in
  let solved =
    lazy
      (let g, tbl, _, deadline = Lazy.force instance in
       match Assign.Dfg_assign.repeat g tbl ~deadline with
       | Some a -> (
           match Sched.Min_resource.run g tbl a ~deadline with
           | Some { Sched.Min_resource.schedule; _ } ->
               (g, tbl, a, schedule, Sched.Binding.bind tbl schedule)
           | None -> failwith "bench: mem scheduling failed")
       | None -> failwith "bench: mem assignment infeasible")
  in
  Test.make_grouped ~name:"mem"
    [
      Test.make ~name:"repeat-unbounded"
        (Staged.stage (fun () ->
             let g, tbl, _, deadline = Lazy.force instance in
             Assign.Solve.run Assign.Solve.Repeat g tbl ~deadline));
      Test.make ~name:"repeat-tight"
        (Staged.stage (fun () ->
             let g, _, tight, deadline = Lazy.force instance in
             Assign.Solve.run Assign.Solve.Repeat g tight ~deadline));
      Test.make ~name:"greedy-tight"
        (Staged.stage (fun () ->
             let g, _, tight, deadline = Lazy.force instance in
             Assign.Solve.run Assign.Solve.Greedy g tight ~deadline));
      Test.make ~name:"mem-loads"
        (Staged.stage (fun () ->
             let g, tbl, a, _, _ = Lazy.force solved in
             Assign.Assignment.mem_loads g tbl a));
      Test.make ~name:"peak-memory"
        (Staged.stage (fun () ->
             let g, tbl, _, schedule, binding = Lazy.force solved in
             Sched.Binding.peak_memory ~graph:g tbl schedule binding));
      Test.make ~name:"check-memory"
        (Staged.stage (fun () ->
             let g, tbl, _, schedule, binding = Lazy.force solved in
             Check.Memory.check g tbl schedule binding));
    ]

(* --- DVFS: table expansion, slack reclamation, online re-solve --------- *)

(* The headline pair is online-incremental vs online-scratch on n >= 100
   random DAGs over a 3-level expanded table: each measured run drifts one
   node's times and re-solves — the incremental side through the
   controller's Repeat_session (refresh one row, recompute up its chain),
   the scratch side through a full Dfg_assign.repeat. Same drifted table,
   same answer (the qcheck differential in test/test_dvfs.ml), so the row
   prices exactly the incremental machinery. *)
let dvfs_tests =
  let leveled_instance n =
    let g, tbl, deadline = scaling_dag_instance n in
    let etbl, mapping =
      Fulib.Dvfs.expand tbl
        ~levels:
          (Fulib.Dvfs.uniform ~levels:3 ~types:(Fulib.Table.num_types tbl))
    in
    (g, tbl, etbl, mapping, deadline)
  in
  let controller n =
    lazy
      (let g, _, etbl, _, deadline = leveled_instance n in
       let ctrl = Online.Controller.create g etbl ~deadline in
       let flip = ref false in
       (* toggle one mid-graph node between nominal and +25% drift so
          every measured run perturbs and re-solves *)
       let drift () =
         flip := not !flip;
         Online.Controller.scale_node ctrl ~node:(n / 2)
           ~pct:(if !flip then 125 else 100)
       in
       (ctrl, drift))
  in
  let inc100 = controller 100 and inc200 = controller 200 in
  let scr100 = controller 100 and scr200 = controller 200 in
  let pick a b n = if n = 100 then a else b in
  let retrofit =
    lazy
      (let g, tbl, etbl, mapping, deadline = leveled_instance 100 in
       match Assign.Dfg_assign.repeat g tbl ~deadline with
       | None -> failwith "bench: dvfs retrofit assignment infeasible"
       | Some a -> (
           match Sched.Min_resource.run g tbl a ~deadline with
           | None -> failwith "bench: dvfs retrofit scheduling failed"
           | Some { Sched.Min_resource.schedule; config; _ } ->
               (* embed the nominal solve into the expanded table: level 0
                  of each base type is its first sibling *)
               let embed =
                 Array.map
                   (fun b -> mapping.Fulib.Dvfs.first.(b))
                   schedule.Sched.Schedule.assignment
               in
               let s' =
                 {
                   Sched.Schedule.start =
                     Array.copy schedule.Sched.Schedule.start;
                   assignment = embed;
                 }
               in
               let config' =
                 Array.make (Fulib.Table.num_types etbl) 0
               in
               Array.iteri
                 (fun b c -> config'.(mapping.Fulib.Dvfs.first.(b)) <- c)
                 config;
               (g, etbl, mapping, config', deadline, s')))
  in
  Test.make_grouped ~name:"dvfs"
    [
      Test.make_indexed ~name:"expand-3" ~args:[ 100 ] (fun n ->
          let _, tbl, _, _, _ = leveled_instance n in
          Staged.stage (fun () ->
              Fulib.Dvfs.expand tbl
                ~levels:
                  (Fulib.Dvfs.uniform ~levels:3
                     ~types:(Fulib.Table.num_types tbl))));
      Test.make_indexed ~name:"reclaim" ~args:[ 100 ] (fun n ->
          ignore n;
          Staged.stage (fun () ->
              let g, etbl, mapping, config, deadline, s =
                Lazy.force retrofit
              in
              Sched.Reclaim.run g etbl ~mapping ~config ~deadline s));
      Test.make_indexed ~name:"online-incremental" ~args:[ 100; 200 ]
        (fun n ->
          Staged.stage (fun () ->
              let ctrl, drift = Lazy.force (pick inc100 inc200 n) in
              drift ();
              Online.Controller.resolve ctrl));
      Test.make_indexed ~name:"online-scratch" ~args:[ 100; 200 ] (fun n ->
          Staged.stage (fun () ->
              let ctrl, drift = Lazy.force (pick scr100 scr200 n) in
              drift ();
              Online.Controller.resolve_scratch ctrl));
    ]

(* --- Real-time admission: verdict throughput and certificate cost ------ *)

(* Specs are analysed (synthesized) once outside the staged thunks; the
   rows price the admission layer itself — try_admit verdicts over a fresh
   controller per run, and the one-hyperperiod simulation certificate over
   an admitted set — as the task count scales. *)
let rt_tests =
  let analysed count =
    lazy
      (let rng = Workloads.Prng.create (9000 + count) in
       let specs = Workloads.Task_set.random rng ~tasks:count in
       List.filter_map
         (fun (s : Workloads.Task_set.spec) ->
           let p =
             Core.Synthesis.periodic ~algorithm:Core.Synthesis.Repeat
               ~period:s.Workloads.Task_set.period
               ~deadline:s.Workloads.Task_set.deadline
               s.Workloads.Task_set.graph s.Workloads.Task_set.table
           in
           match Core.Synthesis.analyse_periodic p with
           | Ok an -> Some (s.Workloads.Task_set.name, an)
           | Error _ -> None)
         specs)
  in
  let sized = [ 8; 16; 32 ] in
  let pools = List.map (fun c -> (c, analysed c)) sized in
  let admit_all tasks =
    let adm = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 4) () in
    List.iter
      (fun (id, an) -> ignore (Rt.Admission.try_admit adm ~id an))
      tasks;
    adm
  in
  let admitted = List.map (fun (c, l) -> (c, lazy (admit_all (Lazy.force l)))) pools in
  Test.make_grouped ~name:"rt"
    [
      Test.make_indexed ~name:"admit" ~args:sized (fun n ->
          let tasks = List.assoc n pools in
          Staged.stage (fun () -> admit_all (Lazy.force tasks)));
      Test.make_indexed ~name:"certificate" ~args:sized (fun n ->
          let adm = List.assoc n admitted in
          Staged.stage (fun () -> Rt.Sim.run (Lazy.force adm)));
    ]

(* --- Structural RTL: lowering and co-simulation throughput ------------ *)

(* Schedules are solved once outside the staged thunks; the rows price the
   backend itself — netlist lowering, SystemVerilog emission, the wire
   path of an rtl request (netlist, stats and the module and testbench
   digests, as Core.Synthesis runs it), and the cycle-accurate
   co-simulation — as the DAG size scales. *)
let rtl_tests =
  let lowered n =
    lazy
      (let g, tbl, deadline = scaling_dag_instance n in
       match Assign.Dfg_assign.repeat g tbl ~deadline with
       | None -> failwith "bench: assignment failed"
       | Some a -> (
           match Sched.Min_resource.run g tbl a ~deadline with
           | None -> failwith "bench: scheduling failed"
           | Some { Sched.Min_resource.schedule; _ } ->
               (g, tbl, schedule, Rtl.Netlist_ir.build g tbl schedule)))
  in
  let sized = [ 20; 40; 80 ] in
  let pool = List.map (fun n -> (n, lowered n)) sized in
  Test.make_grouped ~name:"rtl"
    [
      Test.make_indexed ~name:"lower-structural" ~args:sized (fun n ->
          let inst = List.assoc n pool in
          Staged.stage (fun () ->
              let g, tbl, s, _ = Lazy.force inst in
              Rtl.Netlist_ir.build g tbl s));
      Test.make_indexed ~name:"emit-sv" ~args:sized (fun n ->
          let inst = List.assoc n pool in
          Staged.stage (fun () ->
              let _, _, _, nl = Lazy.force inst in
              Rtl.Sv.emit_module nl));
      Test.make_indexed ~name:"cosim-4" ~args:sized (fun n ->
          let inst = List.assoc n pool in
          Staged.stage (fun () ->
              let _, _, _, nl = Lazy.force inst in
              Rtl.Sim.run nl ~iterations:4
                ~input:Rtl.Backend.default_stimulus));
      Test.make_indexed ~name:"digest" ~args:sized (fun n ->
          let inst = List.assoc n pool in
          Staged.stage (fun () ->
              let g, tbl, s, _ = Lazy.force inst in
              Rtl.Backend.summarize (Rtl.Backend.request g tbl s)));
    ]

(* --- Observability overhead: the disabled-mode no-op contract --------- *)

(* The obs layer claims near-zero cost when tracing is off: a span is one
   flag check, a counter bump one fetch-and-add. The span-off/span-on pair
   below measures both sides of that claim against a bare call; the issue's
   acceptance bound (tracing off => <2% kernel regression) rides on the
   "off" side staying indistinguishable from bare. *)
let obs_tests =
  let work x = Sys.opaque_identity (x * 7 + 3) in
  let c = Obs.Counter.make "bench.obs.counter" in
  Test.make_grouped ~name:"obs"
    [
      Test.make ~name:"bare-call"
        (Staged.stage (fun () -> ignore (work 41)));
      Test.make ~name:"span-disabled"
        (Staged.stage (fun () ->
             Obs.Env.set_trace (Some false);
             ignore (Obs.Span.with_ "bench.noop" (fun () -> work 41));
             Obs.Env.set_trace None));
      Test.make ~name:"span-enabled"
        (Staged.stage (fun () ->
             Obs.Env.set_trace (Some true);
             ignore (Obs.Span.with_ "bench.traced" (fun () -> work 41));
             Obs.Env.set_trace None;
             Obs.Span.clear ()));
      Test.make ~name:"counter-bump"
        (Staged.stage (fun () -> Obs.Counter.incr c));
    ]

(* --- Runner ----------------------------------------------------------- *)

let run_benchmarks ~quick tests =
  let cfg =
    if quick then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-52s %14s %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 76 '-');
  List.iter
    (fun (name, o) ->
      let estimate =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      let time_str =
        if estimate >= 1e9 then Printf.sprintf "%.3f s" (estimate /. 1e9)
        else if estimate >= 1e6 then Printf.sprintf "%.3f ms" (estimate /. 1e6)
        else if estimate >= 1e3 then Printf.sprintf "%.3f us" (estimate /. 1e3)
        else Printf.sprintf "%.1f ns" estimate
      in
      let r2 =
        match Analyze.OLS.r_square o with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      Printf.printf "%-52s %14s %8s\n" name time_str r2)
    rows;
  List.map
    (fun (name, o) ->
      let estimate =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
      in
      (name, estimate))
    rows

(* --- Machine-readable results ----------------------------------------- *)

(* A row's [n] is the trailing ":<int>" Bechamel gives indexed tests (0
   otherwise). A "...-par" row's [speedup_vs_seq] is its "-seq" sibling's
   estimate over its own; everything else reports 1.0. *)
let split_indexed name =
  match String.rindex_opt name ':' with
  | None -> (name, 0)
  | Some i -> (
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      match int_of_string_opt suffix with
      | Some n -> (String.sub name 0 i, n)
      | None -> (name, 0))

let speedup_vs_seq rows name estimate =
  let base, n = split_indexed name in
  if String.length base > 4 && String.ends_with ~suffix:"-par" base then begin
    let sibling =
      String.sub base 0 (String.length base - 4)
      ^ "-seq"
      ^ if n = 0 then "" else Printf.sprintf ":%d" n
    in
    match List.assoc_opt sibling rows with
    | Some seq when estimate > 0.0 && Float.is_finite seq -> seq /. estimate
    | _ -> 1.0
  end
  else 1.0

let write_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (name, estimate) ->
      let _, n = split_indexed name in
      let wall_ns = if Float.is_finite estimate then estimate else 0.0 in
      Printf.fprintf oc
        "  {\"name\": \"%s\", \"n\": %d, \"wall_ns\": %.1f, \
         \"speedup_vs_seq\": %.3f}%s\n"
        (String.concat "\\\"" (String.split_on_char '"' name))
        n wall_ns
        (speedup_vs_seq rows name estimate)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %d benchmark rows to %s\n" (List.length rows) path

let all_groups =
  [
    ("fig1-3", fig_tests);
    ("table1", table1_tests);
    ("table2", table2_tests);
    ("phase2-elliptic", sched_tests);
    ("ablation-expand", ablation_tests);
    ("extensions", extension_tests);
    ("scaling", scaling_tests);
    ("kernel", kernel_tests);
    ("par", par_tests);
    ("serve", serve_tests);
    ("mem", mem_tests);
    ("dvfs", dvfs_tests);
    ("rt", rt_tests);
    ("rtl", rtl_tests);
    ("obs", obs_tests);
  ]

(* CLI: [bench/main.exe [GROUP ...] [--quick] [--json FILE] [--domains N]].
   Group names select a subset of the Bechamel groups and skip the
   reproduction output; [--quick] runs one iteration per test (the CI smoke
   configuration); [--json FILE] additionally writes the rows as
   machine-readable JSON; [--domains N] sets the global pool's width (same
   as HETSCHED_DOMAINS=N). No arguments = full reproduction + all timing
   groups. *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let usage_exit msg =
    Printf.eprintf "%s\n" msg;
    exit 2
  in
  let rec parse (groups, quick, json, domains) = function
    | [] -> (List.rev groups, quick, json, domains)
    | "--quick" :: rest -> parse (groups, true, json, domains) rest
    | "--json" :: path :: rest -> parse (groups, quick, Some path, domains) rest
    | [ "--json" ] -> usage_exit "--json needs a file argument"
    | "--domains" :: d :: rest -> (
        match int_of_string_opt d with
        | Some d when d >= 1 -> parse (groups, quick, json, Some d) rest
        | _ -> usage_exit "--domains needs a positive integer")
    | [ "--domains" ] -> usage_exit "--domains needs a positive integer"
    | g :: rest -> parse (g :: groups, quick, json, domains) rest
  in
  let wanted, quick, json, domains = parse ([], false, None, None) args in
  (match domains with Some d -> Par.Pool.set_global_domains d | None -> ());
  let groups =
    match wanted with
    | [] -> List.map snd all_groups
    | names ->
        List.map
          (fun name ->
            match List.assoc_opt name all_groups with
            | Some g -> g
            | None ->
                Printf.eprintf "unknown bench group %S; known: %s\n" name
                  (String.concat ", " (List.map fst all_groups));
                exit 2)
          names
  in
  if wanted = [] && not quick then begin
    (* Part 1: the reproduction output — every table and figure. *)
    print_endline "=== Reproduction: Figures 1-3 (motivating example) ===";
    print_endline (Core.Experiments.motivational ());
    print_endline "=== Reproduction: Table 1 (tree benchmarks) ===";
    List.iter
      (fun r -> print_endline (Core.Experiments.render_report r))
      (Core.Experiments.table1 ());
    print_endline "=== Reproduction: Table 2 (general DFGs) ===";
    List.iter
      (fun r -> print_endline (Core.Experiments.render_report r))
      (Core.Experiments.table2 ());
    print_endline "=== Reproduction: ablations ===";
    print_endline (Core.Experiments.ablation_expand ());
    print_endline (Core.Experiments.ablation_order ());
    print_endline "=== Reproduction: extension studies ===";
    print_endline (Core.Experiments.extension_refinement ());
    print_endline (Core.Experiments.extension_schedulers ())
  end;
  (* Part 2: Bechamel timings, one Test per table/figure. *)
  print_endline "=== Timings (Bechamel, OLS estimate per run) ===";
  let rows = run_benchmarks ~quick (Test.make_grouped ~name:"hetsched" groups) in
  match json with Some path -> write_json path rows | None -> ()
