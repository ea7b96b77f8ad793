open Helpers

let diamond_setup () =
  let g = diamond () in
  let tbl =
    table lib2
      [
        ([ 1; 2 ], [ 6; 2 ]);
        ([ 2; 3 ], [ 7; 3 ]);
        ([ 2; 4 ], [ 8; 2 ]);
        ([ 1; 2 ], [ 5; 1 ]);
      ]
  in
  (g, tbl)

let test_asap_diamond () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  Alcotest.(check (array int)) "asap starts" [| 0; 1; 1; 3 |]
    (Sched.Asap_alap.asap g tbl a)

let test_alap_diamond () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  (match Sched.Asap_alap.alap g tbl a ~deadline:4 with
  | Some s -> Alcotest.(check (array int)) "alap = asap at tmin" [| 0; 1; 1; 3 |] s
  | None -> Alcotest.fail "tmin feasible");
  match Sched.Asap_alap.alap g tbl a ~deadline:6 with
  | Some s -> Alcotest.(check (array int)) "alap with slack" [| 2; 3; 3; 5 |] s
  | None -> Alcotest.fail "feasible"

let test_alap_infeasible () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  Alcotest.(check bool) "deadline too small" true
    (Sched.Asap_alap.alap g tbl a ~deadline:3 = None)

(* The frames' slack, [alap - asap] per node. *)
let test_slack () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  match Sched.Asap_alap.frames g tbl a ~deadline:6 with
  | Some (early, late) ->
      Alcotest.(check (array int)) "uniform slack 2" [| 2; 2; 2; 2 |]
        (Array.map2 (fun e l -> l - e) early late)
  | None -> Alcotest.fail "feasible"

let test_schedule_validation () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  let good = { Sched.Schedule.start = [| 0; 1; 1; 3 |]; assignment = a } in
  Alcotest.(check bool) "precedence ok" true
    (Sched.Schedule.respects_precedence g tbl good);
  Alcotest.(check int) "length" 4 (Sched.Schedule.length tbl good);
  Alcotest.(check bool) "meets deadline 4" true
    (Sched.Schedule.meets_deadline tbl good ~deadline:4);
  let bad = { Sched.Schedule.start = [| 0; 0; 1; 3 |]; assignment = a } in
  Alcotest.(check bool) "overlap with parent" false
    (Sched.Schedule.respects_precedence g tbl bad)

let test_peak_usage () =
  let g, tbl = diamond_setup () in
  ignore g;
  let a = [| 0; 0; 0; 0 |] in
  (* v1 and v2 run concurrently in steps 1-2 on type A *)
  let s = { Sched.Schedule.start = [| 0; 1; 1; 3 |]; assignment = a } in
  Alcotest.(check (array int)) "peak 2 of type A" [| 2; 0 |]
    (Sched.Schedule.peak_usage tbl s);
  Alcotest.(check bool) "fits 2-0" true
    (Sched.Schedule.fits tbl s ~config:[| 2; 0 |]);
  Alcotest.(check bool) "does not fit 1-0" false
    (Sched.Schedule.fits tbl s ~config:[| 1; 0 |])

let test_config_helpers () =
  Alcotest.(check string) "paper notation" "2-1-3" (Sched.Config.to_string [| 2; 1; 3 |]);
  Alcotest.(check int) "total" 6 (Sched.Config.total [| 2; 1; 3 |]);
  Alcotest.(check bool) "dominates" true (Sched.Config.dominates [| 2; 1 |] [| 2; 0 |]);
  Alcotest.(check bool) "not dominates" false (Sched.Config.dominates [| 2; 0 |] [| 2; 1 |])

let run_and_validate ?(name = "sched") g tbl a ~deadline =
  match Sched.Min_resource.run g tbl a ~deadline with
  | None -> Alcotest.failf "%s: scheduling reported infeasible" name
  | Some { Sched.Min_resource.schedule; config; lower_bound } ->
      Alcotest.(check bool)
        (name ^ ": precedence") true
        (Sched.Schedule.respects_precedence g tbl schedule);
      Alcotest.(check bool)
        (name ^ ": deadline") true
        (Sched.Schedule.meets_deadline tbl schedule ~deadline);
      Alcotest.(check bool)
        (name ^ ": config covers usage") true
        (Sched.Schedule.fits tbl schedule ~config);
      Alcotest.(check bool)
        (name ^ ": config >= nothing below lower bound per type") true
        (Array.for_all2 ( <= ) lower_bound
           (Array.map2 max config lower_bound));
      let naive = Sched.Min_resource.naive_config tbl a in
      Alcotest.(check bool)
        (name ^ ": config <= naive") true
        (Sched.Config.dominates naive config);
      (schedule, config, lower_bound)

let test_min_resource_diamond () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 0; 0; 0 |] in
  (* tight deadline: both middle nodes must overlap -> 2 FUs of type A *)
  let _, config, lb = run_and_validate ~name:"tight" g tbl a ~deadline:4 in
  Alcotest.(check (array int)) "needs 2 type-A FUs" [| 2; 0 |] config;
  Alcotest.(check (array int)) "lower bound sees it" [| 2; 0 |] lb;
  (* relaxed deadline: serialization with one FU becomes possible *)
  let _, config, _ = run_and_validate ~name:"loose" g tbl a ~deadline:6 in
  Alcotest.(check (array int)) "1 FU suffices" [| 1; 0 |] config

let test_min_resource_mixed_types () =
  let g, tbl = diamond_setup () in
  let a = [| 0; 1; 0; 1 |] in
  let deadline = Assign.Assignment.makespan g tbl a in
  let _, config, _ = run_and_validate ~name:"mixed" g tbl a ~deadline in
  Alcotest.(check (array int)) "one of each" [| 1; 1 |] config

let test_min_resource_infeasible () =
  let g, tbl = diamond_setup () in
  let a = [| 1; 1; 1; 1 |] in
  Alcotest.(check bool) "slow assignment misses tight deadline" true
    (Sched.Min_resource.run g tbl a ~deadline:4 = None)

let test_min_resource_wide_parallel_graph () =
  (* 6 independent nodes, deadline = node time: needs 6 FUs; double the
     deadline: 3 FUs *)
  let g = graph 6 [] in
  let tbl = table lib2 (List.init 6 (fun _ -> ([ 2; 2 ], [ 1; 1 ]))) in
  let a = Array.make 6 0 in
  let _, config, _ = run_and_validate ~name:"wide tight" g tbl a ~deadline:2 in
  Alcotest.(check (array int)) "all parallel" [| 6; 0 |] config;
  let _, config, _ = run_and_validate ~name:"wide loose" g tbl a ~deadline:4 in
  Alcotest.(check (array int)) "two waves" [| 3; 0 |] config

let test_lower_bound_never_exceeds_config_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 17 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let deadline = Assign.Assignment.min_makespan g tbl + 3 in
      match Assign.Dfg_assign.repeat g tbl ~deadline with
      | None -> Alcotest.failf "%s: assignment infeasible" name
      | Some a ->
          let _, config, lb = run_and_validate ~name g tbl a ~deadline in
          Array.iteri
            (fun t bound ->
              if bound > config.(t) then
                Alcotest.failf "%s: lower bound %d exceeds config %d for type %d"
                  name bound config.(t) t)
            lb)
    (Workloads.Filters.all ())

let test_naive_config () =
  let tbl =
    table lib3 [ ([ 1; 1; 1 ], [ 1; 1; 1 ]); ([ 1; 1; 1 ], [ 1; 1; 1 ]); ([ 1; 1; 1 ], [ 1; 1; 1 ]) ]
  in
  Alcotest.(check (array int)) "counts per type" [| 2; 0; 1 |]
    (Sched.Min_resource.naive_config tbl [| 0; 2; 0 |])

let test_empty_graph_schedules () =
  let g = graph 0 [] in
  let tbl = table lib2 [] in
  match Sched.Min_resource.run g tbl [||] ~deadline:0 with
  | Some { Sched.Min_resource.config; _ } ->
      Alcotest.(check (array int)) "empty config" [| 0; 0 |] config
  | None -> Alcotest.fail "empty is feasible"

let () =
  Alcotest.run "sched"
    [
      ( "asap/alap",
        [
          quick "asap" test_asap_diamond;
          quick "alap" test_alap_diamond;
          quick "alap infeasible" test_alap_infeasible;
          quick "slack" test_slack;
        ] );
      ( "schedule",
        [
          quick "validation" test_schedule_validation;
          quick "peak usage" test_peak_usage;
          quick "config helpers" test_config_helpers;
        ] );
      ( "min_resource",
        [
          quick "diamond tight/loose" test_min_resource_diamond;
          quick "mixed types" test_min_resource_mixed_types;
          quick "infeasible" test_min_resource_infeasible;
          quick "wide parallel graph" test_min_resource_wide_parallel_graph;
          quick "benchmarks: lb <= config <= naive" test_lower_bound_never_exceeds_config_on_benchmarks;
          quick "naive config" test_naive_config;
          quick "empty graph" test_empty_graph_schedules;
        ] );
    ]
