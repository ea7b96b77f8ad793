(* Tests for cyclic (overlapped) schedule analysis and register lifetime
   analysis/allocation. *)

open Helpers

let correlator () =
  graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 2) ]

let unit_table n = table lib2 (List.init n (fun _ -> ([ 2; 2 ], [ 1; 1 ])))

(* serial schedule of the correlator: v0@0 v1@2 v2@4, each 2 cycles *)
let serial_schedule () =
  { Sched.Schedule.start = [| 0; 2; 4 |]; assignment = [| 0; 0; 0 |] }

let test_legal_period_basic () =
  let g = correlator () in
  let tbl = unit_table 3 in
  let s = serial_schedule () in
  (* full length is always legal *)
  Alcotest.(check bool) "period 6" true
    (Helpers.legal_period g tbl s ~period:6);
  (* the delayed edge v2 -> v0 (d=2) needs finish v2 = 6 <= 0 + 2p,
     so p >= 3 *)
  Alcotest.(check bool) "period 3" true
    (Helpers.legal_period g tbl s ~period:3);
  Alcotest.(check bool) "period 2" false
    (Helpers.legal_period g tbl s ~period:2)

let test_min_period () =
  let g = correlator () in
  let tbl = unit_table 3 in
  let s = serial_schedule () in
  (* dependence bound 3, but one FU instance carries 6 busy steps/period *)
  Alcotest.(check int) "resource-bound period" 6
    (Sched.Cyclic_schedule.min_period g tbl s);
  (* spreading over 2 FUs relaxes the resource bound to 3 *)
  let s2 = { s with Sched.Schedule.start = [| 0; 2; 4 |] } in
  ignore s2;
  let two_fu =
    { Sched.Schedule.start = [| 0; 2; 4 |]; assignment = [| 0; 0; 1 |] }
  in
  Alcotest.(check int) "mixed types relax the bound" 4
    (Sched.Cyclic_schedule.min_period g tbl two_fu)

let test_min_period_rejects_broken_schedule () =
  let g = correlator () in
  let tbl = unit_table 3 in
  let s = { Sched.Schedule.start = [| 0; 0; 4 |]; assignment = [| 0; 0; 0 |] } in
  Alcotest.check_raises "broken precedence"
    (Invalid_argument "Cyclic_schedule.min_period: schedule breaks precedence")
    (fun () -> ignore (Sched.Cyclic_schedule.min_period g tbl s))

let test_simulation_agrees_with_legality () =
  let g = correlator () in
  let tbl = unit_table 3 in
  let s = serial_schedule () in
  for period = 1 to 7 do
    let claimed = Helpers.legal_period g tbl s ~period in
    let sim = Sched.Cyclic_schedule.simulate g tbl s ~period ~iterations:5 in
    Alcotest.(check bool)
      (Printf.sprintf "period %d: simulation is the oracle" period)
      claimed sim.Sched.Cyclic_schedule.ok
  done

let test_simulation_throughput_and_utilisation () =
  let g = correlator () in
  let tbl = unit_table 3 in
  let s = serial_schedule () in
  let sim = Sched.Cyclic_schedule.simulate g tbl s ~period:6 ~iterations:10 in
  Alcotest.(check bool) "legal run" true sim.Sched.Cyclic_schedule.ok;
  (* 10 iterations, the last finishing at 9*6 + 6 = 60 *)
  Alcotest.(check int) "finish" 60 sim.Sched.Cyclic_schedule.finish_time;
  Alcotest.(check (float 0.001)) "1 iteration per 6 steps" (10.0 /. 60.0)
    sim.Sched.Cyclic_schedule.throughput;
  (* one type-A FU busy 6 of every 6 steps -> fully utilised *)
  Alcotest.(check (float 0.001)) "type A utilisation" 1.0
    sim.Sched.Cyclic_schedule.utilisation.(0);
  Alcotest.(check (float 0.001)) "type B unused" 0.0
    sim.Sched.Cyclic_schedule.utilisation.(1)

let test_rotation_period_is_simulatable () =
  (* end-to-end: rotation's claimed period is legal for its own schedule
     on the retimed graph, confirmed by simulation *)
  let g = Workloads.Filters.lattice ~stages:4 in
  let rng = Workloads.Prng.create 3 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let a = Assign.Assignment.all_fastest tbl in
  match Sched.Rotation.run g tbl a ~config:[| 2; 2; 2 |] ~rotations:12 with
  | None -> Alcotest.fail "feasible"
  | Some res ->
      let sim =
        Sched.Cyclic_schedule.simulate res.Sched.Rotation.graph tbl
          res.Sched.Rotation.schedule ~period:res.Sched.Rotation.period
          ~iterations:4
      in
      Alcotest.(check bool) "rotated schedule simulates cleanly" true
        sim.Sched.Cyclic_schedule.ok

(* --- Registers --------------------------------------------------------- *)

let diamond_schedule () =
  (* diamond with unit times type A: v0@0 v1@1 v2@1 v3@2 would break
     (v1,v2 take 2 steps); use times 1 via a dedicated table *)
  let g = diamond () in
  let tbl = table lib2 (List.init 4 (fun _ -> ([ 1; 3 ], [ 2; 1 ]))) in
  let s = { Sched.Schedule.start = [| 0; 1; 1; 2 |]; assignment = [| 0; 0; 0; 0 |] } in
  (g, tbl, s)

let test_lifetimes_diamond () =
  let g, tbl, s = diamond_schedule () in
  let lts = Sched.Registers.lifetimes g tbl s in
  (* v0 lives 1..1? born at 1, last consumer (v1,v2) starts at 1 -> dead on
     arrival, dropped. v1,v2 born at 2, consumer v3 starts 2 -> dropped.
     v3 (no consumers) lives 3..3 -> schedule end 3 means death 3 = birth,
     dropped too. *)
  Alcotest.(check int) "tight schedule holds nothing" 0 (List.length lts);
  (* stretch v3's start: now v1/v2 must be held across steps 2..3 *)
  let s = { s with Sched.Schedule.start = [| 0; 1; 1; 4 |] } in
  let lts = Sched.Registers.lifetimes g tbl s in
  Alcotest.(check int) "v1 and v2 live" 2 (List.length lts);
  Alcotest.(check int) "two registers" 2 (Sched.Registers.max_live g tbl s)

let test_output_values_live_to_end () =
  let g = graph 2 [ (0, 1) ] in
  let tbl = table lib2 [ ([ 1; 1 ], [ 1; 1 ]); ([ 2; 2 ], [ 1; 1 ]) ] in
  let s = { Sched.Schedule.start = [| 0; 1 |]; assignment = [| 0; 0 |] } in
  let lts = Sched.Registers.lifetimes g tbl s in
  (* v1 is an output: lives from 3 to end (3) -> dropped; v0 consumed at 1,
     born 1 -> dropped *)
  Alcotest.(check int) "nothing held" 0 (List.length lts);
  let s = { s with Sched.Schedule.start = [| 0; 3 |] } in
  match Sched.Registers.lifetimes g tbl s with
  | [ lt ] ->
      Alcotest.(check int) "v0 held" 0 lt.Sched.Registers.node;
      Alcotest.(check int) "from its finish" 1 lt.Sched.Registers.birth;
      Alcotest.(check int) "to the consumer's start" 3 lt.Sched.Registers.death
  | l -> Alcotest.failf "expected one lifetime, got %d" (List.length l)

let test_delayed_values_cross_iterations () =
  (* v0 feeds v2 of the NEXT iteration: its value must survive to the
     iteration end even though its zero-delay consumer takes it early *)
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (0, 2, 1) ] in
  let tbl = unit_table 3 in
  let s = serial_schedule () in
  let lts = Sched.Registers.lifetimes g tbl s in
  Alcotest.(check bool) "v0 live to the schedule end" true
    (List.exists
       (fun lt -> lt.Sched.Registers.node = 0 && lt.Sched.Registers.death = 6)
       lts)

let test_allocation_count_equals_max_live () =
  let rng = Workloads.Prng.create 67 in
  for trial = 1 to 25 do
    let n = 2 + Workloads.Prng.int rng 12 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
    let a = Assign.Assignment.all_fastest tbl in
    let deadline = Assign.Assignment.makespan g tbl a + Workloads.Prng.int rng 5 in
    match Sched.Min_resource.run g tbl a ~deadline with
    | None -> Alcotest.failf "trial %d: scheduling failed" trial
    | Some { Sched.Min_resource.schedule; _ } ->
        let allocation, count = Sched.Registers.allocate g tbl schedule in
        Alcotest.(check int)
          (Printf.sprintf "trial %d: left-edge optimal" trial)
          (Sched.Registers.max_live g tbl schedule)
          count;
        (* no two overlapping lifetimes share a register *)
        List.iteri
          (fun i (lt, r) ->
            List.iteri
              (fun j (lt', r') ->
                if i < j && r = r' then
                  let overlap =
                    lt.Sched.Registers.birth < lt'.Sched.Registers.death
                    && lt'.Sched.Registers.birth < lt.Sched.Registers.death
                  in
                  if overlap then
                    Alcotest.failf "trial %d: register conflict" trial)
              allocation)
          allocation
  done

let () =
  Alcotest.run "sched.cyclic_regs"
    [
      ( "cyclic schedule",
        [
          quick "legal periods" test_legal_period_basic;
          quick "min period" test_min_period;
          quick "broken schedule rejected" test_min_period_rejects_broken_schedule;
          quick "simulation = legality oracle" test_simulation_agrees_with_legality;
          quick "throughput and utilisation" test_simulation_throughput_and_utilisation;
          quick "rotation result simulates" test_rotation_period_is_simulatable;
        ] );
      ( "registers",
        [
          quick "diamond lifetimes" test_lifetimes_diamond;
          quick "outputs live to end" test_output_values_live_to_end;
          quick "delayed values" test_delayed_values_cross_iterations;
          quick "left-edge = max live" test_allocation_count_equals_max_live;
        ] );
    ]
