(* Tests for binding, resource-constrained list scheduling, and rotation
   scheduling. *)

open Helpers

let diamond_setup () =
  ( diamond (),
    table lib2
      [
        ([ 1; 2 ], [ 6; 2 ]);
        ([ 2; 3 ], [ 7; 3 ]);
        ([ 2; 4 ], [ 8; 2 ]);
        ([ 1; 2 ], [ 5; 1 ]);
      ] )

(* --- Binding ----------------------------------------------------------- *)

let test_binding_diamond () =
  let g, tbl = diamond_setup () in
  ignore g;
  let s = { Sched.Schedule.start = [| 0; 1; 1; 3 |]; assignment = [| 0; 0; 0; 0 |] } in
  let b = Sched.Binding.bind tbl s in
  Alcotest.(check bool) "valid" true (Oracle.Binding.is_valid tbl s b);
  Alcotest.(check (array int)) "instances = peak usage"
    (Sched.Schedule.peak_usage tbl s)
    b.Sched.Binding.config;
  (* v1 and v2 overlap: distinct instances *)
  Alcotest.(check bool) "overlapping nodes split" true
    (b.Sched.Binding.instance.(1) <> b.Sched.Binding.instance.(2));
  (* v0 and v3 can share with one of them *)
  Alcotest.(check int) "v0 on instance 0" 0 b.Sched.Binding.instance.(0)

let test_binding_is_valid_detects_conflict () =
  let _, tbl = diamond_setup () in
  let s = { Sched.Schedule.start = [| 0; 1; 1; 3 |]; assignment = [| 0; 0; 0; 0 |] } in
  let bogus = { Sched.Binding.instance = [| 0; 0; 0; 0 |]; config = [| 1; 0 |] } in
  Alcotest.(check bool) "conflict detected" false
    (Oracle.Binding.is_valid tbl s bogus)

let test_binding_matches_min_resource_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 37 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let deadline = Assign.Assignment.min_makespan g tbl + 5 in
      match Assign.Dfg_assign.repeat g tbl ~deadline with
      | None -> Alcotest.failf "%s infeasible" name
      | Some a -> (
          match Sched.Min_resource.run g tbl a ~deadline with
          | None -> Alcotest.failf "%s scheduling failed" name
          | Some { Sched.Min_resource.schedule; config; _ } ->
              let b = Sched.Binding.bind tbl schedule in
              Alcotest.(check bool) (name ^ ": binding valid") true
                (Oracle.Binding.is_valid tbl schedule b);
              Alcotest.(check (array int))
                (name ^ ": binding config = schedule config")
                config b.Sched.Binding.config))
    (Workloads.Filters.all ())

let test_binding_pp () =
  let g, tbl = diamond_setup () in
  let s = { Sched.Schedule.start = [| 0; 1; 1; 3 |]; assignment = [| 0; 0; 0; 0 |] } in
  let b = Sched.Binding.bind tbl s in
  let out = Format.asprintf "%a" (Sched.Binding.pp ~graph:g ~table:tbl ~schedule:s) b in
  Alcotest.(check bool) "mentions an FU row" true
    (String.length out > 0 && String.sub out 0 1 = "A")

(* --- Resource-constrained list scheduling ------------------------------ *)

let test_rc_serialises_under_one_fu () =
  let g = graph 3 [] in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 2; 2 ], [ 1; 1 ]))) in
  let a = Array.make 3 0 in
  (match Sched.Resource_constrained.makespan g tbl a ~config:[| 1; 0 |] with
  | Some l -> Alcotest.(check int) "serial" 6 l
  | None -> Alcotest.fail "feasible");
  match Sched.Resource_constrained.makespan g tbl a ~config:[| 3; 0 |] with
  | Some l -> Alcotest.(check int) "parallel" 2 l
  | None -> Alcotest.fail "feasible"

let test_rc_zero_instances () =
  let g = graph 1 [] in
  let tbl = table lib2 [ ([ 1; 1 ], [ 1; 1 ]) ] in
  Alcotest.(check bool) "unusable config" true
    (Sched.Resource_constrained.run g tbl [| 0 |] ~config:[| 0; 5 |] = None);
  (* a type with zero instances that no node uses is fine *)
  Alcotest.(check bool) "unused type may be absent" true
    (Sched.Resource_constrained.run g tbl [| 0 |] ~config:[| 1; 0 |] <> None)

let test_rc_respects_everything () =
  let rng = Workloads.Prng.create 43 in
  for trial = 1 to 25 do
    let n = 2 + Workloads.Prng.int rng 12 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
    let a = Array.init n (fun _ -> Workloads.Prng.int rng 3) in
    let config = Array.init 3 (fun _ -> 1 + Workloads.Prng.int rng 2) in
    match Sched.Resource_constrained.run g tbl a ~config with
    | None -> Alcotest.failf "trial %d: positive config must schedule" trial
    | Some s ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d precedence" trial)
          true
          (Sched.Schedule.respects_precedence g tbl s);
        Alcotest.(check bool)
          (Printf.sprintf "trial %d capacity" trial)
          true
          (Sched.Schedule.fits tbl s ~config)
  done

let test_rc_never_beats_critical_path () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  match Sched.Resource_constrained.makespan g tbl a ~config:[| 4; 4 |] with
  | Some l ->
      Alcotest.(check int) "critical path is the floor"
        (Assign.Assignment.makespan g tbl a)
        l
  | None -> Alcotest.fail "feasible"

(* --- Rotation ----------------------------------------------------------- *)

let correlator () =
  graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 2) ]

let test_rotation_improves_correlator () =
  let g = correlator () in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 2; 2 ], [ 1; 1 ]))) in
  let a = [| 0; 0; 0 |] in
  let config = [| 1; 0 |] in
  match Sched.Rotation.run g tbl a ~config ~rotations:6 with
  | None -> Alcotest.fail "feasible"
  | Some res ->
      (* static schedule of 3 chained 2-cycle nodes = 6; one FU bounds the
         period below by total work / instances = 6, so rotation cannot
         improve with 1 FU... *)
      Alcotest.(check bool) "period >= work bound" true
        (res.Sched.Rotation.period >= 6);
      (* ... but with 2 FUs the retimed DAG portions get shorter *)
      let config2 = [| 2; 0 |] in
      (match Sched.Rotation.run g tbl a ~config:config2 ~rotations:6 with
      | None -> Alcotest.fail "feasible"
      | Some res2 ->
          Alcotest.(check bool)
            (Printf.sprintf "rotated %d < static 6" res2.Sched.Rotation.period)
            true
            (res2.Sched.Rotation.period < 6);
          (* the result is internally consistent *)
          Alcotest.(check bool) "retiming legal on original" true
            (Dfg.Cyclic.is_legal g res2.Sched.Rotation.retiming);
          Alcotest.(check int) "schedule length = period"
            res2.Sched.Rotation.period
            (Sched.Schedule.length tbl res2.Sched.Rotation.schedule);
          Alcotest.(check bool) "schedule valid on retimed graph" true
            (Sched.Schedule.respects_precedence res2.Sched.Rotation.graph tbl
               res2.Sched.Rotation.schedule))

let test_rotation_never_worse_than_static () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 47 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let a = Assign.Assignment.all_fastest tbl in
      let config = Array.make 3 2 in
      match
        ( Sched.Resource_constrained.makespan g tbl a ~config,
          Sched.Rotation.run g tbl a ~config ~rotations:20 )
      with
      | Some static, Some res ->
          if res.Sched.Rotation.period > static then
            Alcotest.failf "%s: rotation made it worse" name
      | _ -> Alcotest.failf "%s: scheduling failed" name)
    (Workloads.Filters.all ())

let test_rotation_retiming_consistent () =
  (* the cumulative retiming must be legal on the original graph and must
     reproduce exactly the graph the best schedule was computed on (delay
     sums around every cycle are then preserved by construction) *)
  let g = Workloads.Filters.lattice ~stages:4 in
  let rng = Workloads.Prng.create 53 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let a = Assign.Assignment.all_fastest tbl in
  match Sched.Rotation.run g tbl a ~config:[| 2; 2; 2 |] ~rotations:10 with
  | None -> Alcotest.fail "feasible"
  | Some res ->
      Alcotest.(check bool) "legal" true
        (Dfg.Cyclic.is_legal g res.Sched.Rotation.retiming);
      let reapplied = Dfg.Cyclic.apply g res.Sched.Rotation.retiming in
      let edges gr =
        List.sort compare
          (List.map
             (fun { Dfg.Graph.src; dst; delay; _ } -> (src, dst, delay))
             (Dfg.Graph.edges gr))
      in
      Alcotest.(check (list (triple int int int)))
        "retiming reproduces the returned graph" (edges reapplied)
        (edges res.Sched.Rotation.graph)

let test_rotation_zero_rotations_is_static () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  match
    ( Sched.Rotation.run g tbl a ~config:[| 2; 2 |] ~rotations:0,
      Sched.Resource_constrained.makespan g tbl a ~config:[| 2; 2 |] )
  with
  | Some res, Some static ->
      Alcotest.(check int) "same" static res.Sched.Rotation.period
  | _ -> Alcotest.fail "feasible"

(* --- Min_config's priority queue ---------------------------------------- *)

let test_pq_fifo_ties () =
  let q = Sched.Min_config.Pq.create () in
  Sched.Min_config.Pq.push q 2 "first-at-2";
  Sched.Min_config.Pq.push q 1 "first-at-1";
  Sched.Min_config.Pq.push q 2 "second-at-2";
  Sched.Min_config.Pq.push q 1 "second-at-1";
  Sched.Min_config.Pq.push q 2 "third-at-2";
  let drain () =
    let rec go acc =
      match Sched.Min_config.Pq.pop q with
      | Some (p, x) -> go ((p, x) :: acc)
      | None -> List.rev acc
    in
    go []
  in
  Alcotest.(check (list (pair int string)))
    "lowest priority first, FIFO within ties"
    [
      (1, "first-at-1");
      (1, "second-at-1");
      (2, "first-at-2");
      (2, "second-at-2");
      (2, "third-at-2");
    ]
    (drain ());
  Alcotest.(check bool) "empty after drain"
    (Sched.Min_config.Pq.pop q = None) true

let test_pq_interleaved () =
  (* FIFO survives interleaved pushes and pops within a bucket *)
  let q = Sched.Min_config.Pq.create () in
  Sched.Min_config.Pq.push q 5 "a";
  Sched.Min_config.Pq.push q 5 "b";
  Alcotest.(check (option (pair int string))) "pop a" (Some (5, "a"))
    (Sched.Min_config.Pq.pop q);
  Sched.Min_config.Pq.push q 5 "c";
  Sched.Min_config.Pq.push q 4 "d";
  Alcotest.(check (option (pair int string))) "lower priority overtakes"
    (Some (4, "d"))
    (Sched.Min_config.Pq.pop q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (5, "b"))
    (Sched.Min_config.Pq.pop q);
  Alcotest.(check (option (pair int string))) "pop c" (Some (5, "c"))
    (Sched.Min_config.Pq.pop q);
  Alcotest.(check (option (pair int string))) "empty" None
    (Sched.Min_config.Pq.pop q)

let test_min_config_deterministic_tie () =
  (* two independent chains, two types with symmetric costs: several
     configurations share the minimal total; the solver must return the
     same one however the search happened to enqueue ties, i.e. the first
     in generation order from the lower bound *)
  let g = graph 4 [ (0, 1); (2, 3) ] in
  let tbl =
    table lib2
      [
        ([ 1; 2 ], [ 4; 1 ]);
        ([ 1; 2 ], [ 4; 1 ]);
        ([ 1; 2 ], [ 4; 1 ]);
        ([ 1; 2 ], [ 4; 1 ]);
      ]
  in
  let a = [| 0; 1; 1; 0 |] in
  match Sched.Min_config.solve g tbl a ~deadline:3 with
  | None -> Alcotest.fail "feasible instance reported infeasible"
  | Some (config, schedule, total) ->
      Alcotest.(check int) "objective is the config total"
        (Sched.Config.total config) total;
      Alcotest.(check bool) "witness schedule fits" true
        (Sched.Schedule.fits tbl schedule ~config);
      (* pin the deterministic choice: re-solving yields the same config *)
      (match Sched.Min_config.solve g tbl a ~deadline:3 with
      | Some (config', _, _) ->
          Alcotest.(check string) "re-solve identical"
            (Sched.Config.to_string config)
            (Sched.Config.to_string config')
      | None -> Alcotest.fail "re-solve failed")

let () =
  Alcotest.run "sched.extensions"
    [
      ( "binding",
        [
          quick "diamond" test_binding_diamond;
          quick "conflict detection" test_binding_is_valid_detects_conflict;
          quick "benchmarks" test_binding_matches_min_resource_on_benchmarks;
          quick "pp" test_binding_pp;
        ] );
      ( "resource_constrained",
        [
          quick "serialise vs parallel" test_rc_serialises_under_one_fu;
          quick "zero instances" test_rc_zero_instances;
          quick "random instances valid" test_rc_respects_everything;
          quick "critical-path floor" test_rc_never_beats_critical_path;
        ] );
      ( "rotation",
        [
          quick "correlator" test_rotation_improves_correlator;
          quick "never worse than static" test_rotation_never_worse_than_static;
          quick "retiming consistency" test_rotation_retiming_consistent;
          quick "zero rotations" test_rotation_zero_rotations_is_static;
        ] );
      ( "min_config.pq",
        [
          quick "fifo within ties" test_pq_fifo_ties;
          quick "interleaved push/pop" test_pq_interleaved;
          quick "deterministic tie config" test_min_config_deterministic_tie;
        ] );
    ]
