(* Tests for exact schedulability and minimum-configuration search. *)

open Helpers

let feasible ?budget g tbl a ~config ~deadline =
  Sched.Exact_schedule.schedule ?budget g tbl a ~config ~deadline <> None

let unit_table n = table lib2 (List.init n (fun _ -> ([ 1; 1 ], [ 1; 1 ])))

let test_feasibility_basics () =
  (* 4 independent unit nodes, deadline 2: needs 2 FUs; deadline 4: 1 *)
  let g = graph 4 [] in
  let tbl = unit_table 4 in
  let a = Array.make 4 0 in
  Alcotest.(check bool) "2 FUs, T=2" true
    (feasible g tbl a ~config:[| 2; 0 |] ~deadline:2);
  Alcotest.(check bool) "1 FU, T=2" false
    (feasible g tbl a ~config:[| 1; 0 |] ~deadline:2);
  Alcotest.(check bool) "1 FU, T=4" true
    (feasible g tbl a ~config:[| 1; 0 |] ~deadline:4);
  Alcotest.(check bool) "zero instances of a used type" false
    (feasible g tbl a ~config:[| 0; 9 |] ~deadline:9)

let test_witness_is_valid () =
  let g = diamond () in
  let tbl = unit_table 4 in
  let a = Array.make 4 0 in
  match Sched.Exact_schedule.schedule g tbl a ~config:[| 1; 0 |] ~deadline:4 with
  | None -> Alcotest.fail "diamond serialises into 4 steps on one FU"
  | Some s ->
      Alcotest.(check bool) "precedence" true
        (Sched.Schedule.respects_precedence g tbl s);
      Alcotest.(check bool) "deadline" true
        (Sched.Schedule.meets_deadline tbl s ~deadline:4);
      Alcotest.(check bool) "capacity" true
        (Sched.Schedule.fits tbl s ~config:[| 1; 0 |])

let test_exact_beats_list_scheduling_sometimes () =
  (* a case where naive list scheduling needs more FUs than necessary:
     exact search may reorder. At minimum, exact must accept whenever the
     list scheduler produced a valid schedule. *)
  let rng = Workloads.Prng.create 73 in
  for trial = 1 to 25 do
    let n = 2 + Workloads.Prng.int rng 7 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib2 ~num_nodes:n in
    let a = Assign.Assignment.all_fastest tbl in
    let deadline =
      Assign.Assignment.makespan g tbl a + Workloads.Prng.int rng 4
    in
    match Sched.Min_resource.run g tbl a ~deadline with
    | None -> Alcotest.failf "trial %d: list scheduling failed" trial
    | Some { Sched.Min_resource.config; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: exact accepts the list config" trial)
          true
          (feasible g tbl a ~config ~deadline)
  done

let test_budget () =
  let rng = Workloads.Prng.create 2 in
  let g = Workloads.Random_dfg.random_dag rng ~n:14 ~extra_edges:2 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib2 ~num_nodes:14 in
  let a = Assign.Assignment.all_fastest tbl in
  let deadline = Assign.Assignment.makespan g tbl a + 20 in
  Alcotest.check_raises "budget" Sched.Exact_schedule.Budget_exhausted
    (fun () ->
      ignore
        (feasible ~budget:3 g tbl a ~config:[| 1; 1 |]
           ~deadline))

let brute_force_min_total g tbl a ~deadline =
  (* smallest total FU count over the whole box, by exhaustive check *)
  let naive = Sched.Min_resource.naive_config tbl a in
  let k = Array.length naive in
  let best = ref None in
  let rec enumerate t c =
    if t = k then begin
      if feasible g tbl a ~config:c ~deadline then
        let total = Sched.Config.total c in
        match !best with
        | Some b when b <= total -> ()
        | _ -> best := Some total
    end
    else
      for x = 0 to naive.(t) do
        let c' = Array.copy c in
        c'.(t) <- x;
        enumerate (t + 1) c'
      done
  in
  enumerate 0 (Array.make k 0);
  !best

let test_min_config_optimal () =
  let rng = Workloads.Prng.create 79 in
  for trial = 1 to 15 do
    let n = 2 + Workloads.Prng.int rng 6 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib2 ~num_nodes:n in
    let a = Assign.Assignment.all_fastest tbl in
    let deadline = Assign.Assignment.makespan g tbl a + Workloads.Prng.int rng 3 in
    match
      (Sched.Min_config.solve g tbl a ~deadline, brute_force_min_total g tbl a ~deadline)
    with
    | Some (config, s, obj), Some want ->
        Alcotest.(check int) (Printf.sprintf "trial %d optimal total" trial) want obj;
        Alcotest.(check int) "objective = total" (Sched.Config.total config) obj;
        Alcotest.(check bool) "witness valid" true
          (Sched.Schedule.respects_precedence g tbl s
          && Sched.Schedule.meets_deadline tbl s ~deadline
          && Sched.Schedule.fits tbl s ~config)
    | None, None -> ()
    | _ -> Alcotest.failf "trial %d: feasibility mismatch" trial
  done

let test_min_config_never_exceeds_list_scheduler () =
  let rng = Workloads.Prng.create 83 in
  for trial = 1 to 10 do
    let n = 3 + Workloads.Prng.int rng 5 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib2 ~num_nodes:n in
    let a = Assign.Assignment.all_fastest tbl in
    let deadline = Assign.Assignment.makespan g tbl a + 2 in
    match
      (Sched.Min_config.solve g tbl a ~deadline, Sched.Min_resource.run g tbl a ~deadline)
    with
    | Some (_, _, exact_total), Some { Sched.Min_resource.config; _ } ->
        Alcotest.(check bool)
          (Printf.sprintf "trial %d: exact <= list (%d vs %d)" trial exact_total
             (Sched.Config.total config))
          true
          (exact_total <= Sched.Config.total config)
    | _ -> Alcotest.failf "trial %d: solver disagreement" trial
  done

let test_min_config_weighted () =
  (* two types, type A three times the area of type B: with assignments on
     both types the optimiser must still cover each used type *)
  let g = graph 2 [] in
  let tbl = table lib2 [ ([ 1; 9 ], [ 1; 1 ]); ([ 9; 1 ], [ 1; 1 ]) ] in
  let a = [| 0; 1 |] in
  match Sched.Min_config.solve ~weights:[| 3; 1 |] g tbl a ~deadline:9 with
  | Some (config, _, obj) ->
      Alcotest.(check (array int)) "one of each" [| 1; 1 |] config;
      Alcotest.(check int) "weighted objective" 4 obj
  | None -> Alcotest.fail "feasible"

let test_min_config_infeasible () =
  let g = path_graph 3 in
  let tbl = unit_table 3 in
  let a = Array.make 3 0 in
  Alcotest.(check bool) "deadline below critical path" true
    (Sched.Min_config.solve g tbl a ~deadline:2 = None)

let () =
  Alcotest.run "sched.exact"
    [
      ( "exact_schedule",
        [
          quick "feasibility basics" test_feasibility_basics;
          quick "witness valid" test_witness_is_valid;
          quick "accepts list-scheduler configs" test_exact_beats_list_scheduling_sometimes;
          quick "budget" test_budget;
        ] );
      ( "min_config",
        [
          quick "optimal vs brute force" test_min_config_optimal;
          quick "never exceeds list scheduler" test_min_config_never_exceeds_list_scheduler;
          quick "weighted objective" test_min_config_weighted;
          quick "infeasible deadline" test_min_config_infeasible;
        ] );
    ]
