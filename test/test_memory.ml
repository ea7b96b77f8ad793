(* The memory dimension end to end.

   Per-type capacities and per-edge data sizes thread from Fulib.Library
   through the solvers (mask pruning, residual accounting) into the
   Solve.run verdict, Core.Synthesis statuses and the serve wire format.
   The load-bearing contracts:

   - unbounded capacities are bit-identical to the pre-memory solver (the
     qcheck differential below, also at 1 vs 2 domains);
   - a bounded-but-loose capacity (every type can hold the whole graph)
     prunes nothing, so results still match the unbounded run exactly;
   - on genuinely tight instances Exact matches a memory-aware brute
     force, and there exist instances where Greedy lands on
     Infeasible_memory while Exact stays Feasible;
   - every Feasible verdict is memory-feasible, whatever the solver. *)

open Helpers

let solvers =
  Assign.Solve.
    [
      Greedy; Greedy_iterative; Once; Repeat; Repeat_search; Repeat_refined;
      Beam; Exact;
    ]

let sized_instance seed ~n =
  let rng = Workloads.Prng.create seed in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(max 1 (n / 3)) in
  let g = Workloads.Random_dfg.with_sizes rng g in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  (g, tbl)

let verdict_eq a b =
  match (a, b) with
  | Assign.Solve.Feasible x, Assign.Solve.Feasible y -> x = y
  | Assign.Solve.Infeasible, Assign.Solve.Infeasible -> true
  | Assign.Solve.Infeasible_memory, Assign.Solve.Infeasible_memory -> true
  | _ -> false

(* --- transfer cost (accounting only) ----------------------------------- *)

let sized_fork () =
  (* v0 -{3}-> v1, v0 -{2}-> v2 *)
  Dfg.Graph.of_edges
    ~names:[| "v0"; "v1"; "v2" |]
    [
      { Dfg.Graph.src = 0; dst = 1; delay = 0; size = 3 };
      { Dfg.Graph.src = 0; dst = 2; delay = 0; size = 2 };
    ]

let test_transfer () =
  Alcotest.(check int)
    "same type moves free" 0
    (Dfg.Graph.transfer ~src_type:1 ~dst_type:1 ~size:7);
  Alcotest.(check int)
    "cross type costs the size" 7
    (Dfg.Graph.transfer ~src_type:0 ~dst_type:1 ~size:7);
  let g = sized_fork () in
  Alcotest.(check int)
    "all local" 0
    (Assign.Assignment.transfer_cost g [| 0; 0; 0 |]);
  Alcotest.(check int)
    "one consumer remote" 3
    (Assign.Assignment.transfer_cost g [| 0; 1; 0 |]);
  Alcotest.(check int)
    "producer remote from both" 5
    (Assign.Assignment.transfer_cost g [| 1; 0; 0 |])

let test_loads_and_footprints () =
  let g = sized_fork () in
  Alcotest.(check int) "v0 footprint sums all out-edges" 5 (Dfg.Graph.out_data g 0);
  Alcotest.(check int) "leaves carry nothing" 0 (Dfg.Graph.out_data g 1);
  let tbl =
    table lib2 [ ([ 1; 1 ], [ 1; 1 ]); ([ 1; 1 ], [ 1; 1 ]); ([ 1; 1 ], [ 1; 1 ]) ]
  in
  Alcotest.(check bool)
    "unbounded table is unconstrained" false
    (Assign.Assignment.mem_constrained g tbl);
  let bounded = Fulib.Table.with_mem_capacity tbl [| 4; 9 |] in
  Alcotest.(check bool)
    "bounded + sized is constrained" true
    (Assign.Assignment.mem_constrained g bounded);
  Alcotest.(check (array int))
    "loads land on the producer's type" [| 5; 0 |]
    (Assign.Assignment.mem_loads g bounded [| 0; 1; 0 |]);
  Alcotest.(check bool)
    "5 > 4 on type A" false
    (Assign.Assignment.mem_feasible g bounded [| 0; 1; 0 |]);
  Alcotest.(check bool)
    "5 <= 9 on type B" true
    (Assign.Assignment.mem_feasible g bounded [| 1; 1; 0 |])

(* --- the Tree_kernel placement mask ------------------------------------ *)

let test_forbid_mask () =
  let g = path_graph 3 in
  let times () = Array.make 6 1 in
  let costs () = [| 1; 5; 1; 5; 1; 5 |] in
  (match
     Assign.Tree_kernel.(
       solve
         (create (Helpers.forest_parent g) ~times:(times ()) ~costs:(costs ())
            ~k:2 ~deadline:10))
   with
  | Some (a, c) ->
      Alcotest.(check (array int)) "unmasked: all on the cheap type" [| 0; 0; 0 |] a;
      Alcotest.(check int) "unmasked cost" 3 c
  | None -> Alcotest.fail "unmasked kernel infeasible");
  let forbid = Array.make 6 false in
  forbid.((1 * 2) + 0) <- true;
  (* node 1 may not use type 0 *)
  (match
     Assign.Tree_kernel.(
       solve
         (create ~forbid (Helpers.forest_parent g) ~times:(times ())
            ~costs:(costs ()) ~k:2 ~deadline:10))
   with
  | Some (a, c) ->
      Alcotest.(check (array int)) "mask reroutes node 1" [| 0; 1; 0 |] a;
      Alcotest.(check int) "masked cost" 7 c
  | None -> Alcotest.fail "masked kernel infeasible");
  let forbid = Array.make 6 false in
  forbid.((1 * 2) + 0) <- true;
  forbid.((1 * 2) + 1) <- true;
  match
    Assign.Tree_kernel.(
      solve
        (create ~forbid (Helpers.forest_parent g) ~times:(times ())
           ~costs:(costs ()) ~k:2 ~deadline:10))
  with
  | Some _ -> Alcotest.fail "fully masked node still placed"
  | None -> ()

(* --- differential: unbounded == bounded-but-loose ----------------------- *)

let unbounded_equals_loose =
  QCheck.Test.make ~count:20
    ~name:"loose finite capacities change nothing (all solvers)"
    QCheck.(pair (int_range 0 1000) (int_range 4 10))
    (fun (seed, n) ->
      let g, tbl = sized_instance seed ~n in
      let loose = Oracle.Tables.mem_loose g tbl in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let deadline = tmin + (tmin / 3) in
      List.for_all
        (fun algo ->
          verdict_eq
            (Assign.Solve.run algo g tbl ~deadline)
            (Assign.Solve.run algo g loose ~deadline))
        solvers)

let test_loose_across_domains () =
  let g, tbl = sized_instance 77 ~n:24 in
  let loose = Oracle.Tables.mem_loose g tbl in
  let tmin = Core.Synthesis.min_deadline g tbl in
  let deadline = tmin + (tmin / 4) in
  let runs =
    List.map
      (fun domains ->
        Par.Pool.set_global_domains domains;
        ( Assign.Solve.run Assign.Solve.Repeat_search g tbl ~deadline,
          Assign.Solve.run Assign.Solve.Repeat_search g loose ~deadline ))
      [ 1; 2 ]
  in
  match runs with
  | [ (u1, l1); (u2, l2) ] ->
      Alcotest.(check bool) "1 domain: loose == unbounded" true (verdict_eq u1 l1);
      Alcotest.(check bool) "2 domains: loose == unbounded" true (verdict_eq u2 l2);
      Alcotest.(check bool) "domains don't change the verdict" true (verdict_eq u1 u2)
  | _ -> assert false

(* --- tight instances ---------------------------------------------------- *)

(* Memory-aware brute force: the oracle for Exact under capacities. *)
let brute_force_mem g tbl ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types tbl in
  let a = Array.make n 0 in
  let best = ref None in
  let consider () =
    if
      Assign.Assignment.is_feasible g tbl a ~deadline
      && Assign.Assignment.mem_feasible g tbl a
    then begin
      let c = Assign.Assignment.total_cost tbl a in
      match !best with
      | Some c' when c' <= c -> ()
      | _ -> best := Some c
    end
  in
  let rec enumerate i =
    if i = n then consider ()
    else
      for t = 0 to k - 1 do
        a.(i) <- t;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  !best

let exact_matches_memory_oracle =
  QCheck.Test.make ~count:25 ~name:"Exact under tight capacities == brute force"
    QCheck.(pair (int_range 0 1000) (int_range 3 7))
    (fun (seed, n) ->
      let g, tbl = sized_instance seed ~n in
      let tight = Workloads.Tables.mem_tight ~slack:1.1 g tbl in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let deadline = tmin + (tmin / 2) in
      match
        (Assign.Solve.run Assign.Solve.Exact g tight ~deadline,
         brute_force_mem g tight ~deadline)
      with
      | Assign.Solve.Feasible a, Some opt ->
          Assign.Assignment.mem_feasible g tight a
          && Assign.Assignment.total_cost tight a = opt
      | (Assign.Solve.Infeasible | Assign.Solve.Infeasible_memory), None -> true
      | _ -> false)

let every_feasible_verdict_is_memory_feasible =
  QCheck.Test.make ~count:20
    ~name:"every Feasible verdict is memory-feasible (all solvers, tight)"
    QCheck.(pair (int_range 0 1000) (int_range 4 10))
    (fun (seed, n) ->
      let g, tbl = sized_instance seed ~n in
      let tight = Workloads.Tables.mem_tight ~slack:1.2 g tbl in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let deadline = tmin + (tmin / 2) in
      List.for_all
        (fun algo ->
          match Assign.Solve.run algo g tight ~deadline with
          | Assign.Solve.Feasible a ->
              Assign.Assignment.mem_feasible g tight a
          | Assign.Solve.Infeasible | Assign.Solve.Infeasible_memory -> true)
        solvers)

(* Find (deterministically, by scanning seeds) an instance where Greedy
   gives up with Infeasible_memory but Exact still finds a feasible
   assignment — the acceptance instance for the memory dimension. *)
let find_greedy_flip () =
  let found = ref None in
  let seed = ref 0 in
  while !found = None && !seed < 2000 do
    let g, tbl = sized_instance !seed ~n:8 in
    let tight = Workloads.Tables.mem_tight ~slack:1.02 g tbl in
    let tmin = Core.Synthesis.min_deadline g tbl in
    let deadline = 2 * tmin in
    (match
       (Assign.Solve.run Assign.Solve.Greedy g tight ~deadline,
        Assign.Solve.run Assign.Solve.Exact g tight ~deadline)
     with
    | Assign.Solve.Infeasible_memory, Assign.Solve.Feasible a ->
        found := Some (g, tight, deadline, a)
    | _ -> ());
    incr seed
  done;
  !found

let test_greedy_flips_exact_survives () =
  match find_greedy_flip () with
  | None ->
      Alcotest.fail
        "no instance found where Greedy is memory-infeasible but Exact solves"
  | Some (g, tight, deadline, a) ->
      Alcotest.(check bool)
        "Exact's assignment is memory-feasible" true
        (Assign.Assignment.mem_feasible g tight a);
      Alcotest.(check bool)
        "Exact's assignment meets the deadline" true
        (Assign.Assignment.is_feasible g tight a ~deadline);
      (* the same flip through the full pipeline, audited *)
      Check.Env.set_override (Some true);
      Fun.protect
        ~finally:(fun () -> Check.Env.set_override None)
        (fun () ->
          let solve algo =
            Core.Synthesis.solve
              (Core.Synthesis.request ~algorithm:algo ~deadline g tight)
          in
          (match (solve Core.Synthesis.Greedy).Core.Synthesis.status with
          | Core.Synthesis.Infeasible_memory -> ()
          | s ->
              Alcotest.failf "Greedy status: expected infeasible_memory, got %s"
                (match s with
                | Core.Synthesis.Ok -> "ok"
                | Core.Synthesis.Infeasible -> "infeasible"
                | Core.Synthesis.Infeasible_memory -> "infeasible_memory"
                | Core.Synthesis.Timeout -> "timeout"
                | Core.Synthesis.Error e -> "error: " ^ e));
          let exact = solve Core.Synthesis.Exact in
          match (exact.Core.Synthesis.status, exact.Core.Synthesis.result) with
          | Core.Synthesis.Ok, Some r ->
              Alcotest.(check (list Alcotest.reject))
                "validated clean" [] exact.Core.Synthesis.violations;
              (* the scheduled result stays within capacity per instance *)
              let b = Sched.Binding.bind tight r.Core.Synthesis.schedule in
              let caps = Fulib.Table.mem_capacities tight in
              let peaks =
                Sched.Binding.peak_memory ~graph:g tight
                  r.Core.Synthesis.schedule b
              in
              Array.iteri
                (fun t per_instance ->
                  Array.iter
                    (fun p ->
                      Alcotest.(check bool)
                        "instance peak within capacity" true (p <= caps.(t)))
                    per_instance)
                peaks
          | _ -> Alcotest.fail "Exact did not produce an Ok audited result")

(* --- schedule-level accounting ------------------------------------------ *)

let test_peak_memory_bounded_by_loads () =
  let g, tbl = sized_instance 5 ~n:20 in
  let loose = Oracle.Tables.mem_loose g tbl in
  let tmin = Core.Synthesis.min_deadline g loose in
  let resp =
    Core.Synthesis.solve
      (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat
         ~deadline:(tmin + (tmin / 3)) g loose)
  in
  match resp.Core.Synthesis.result with
  | None -> Alcotest.fail "loose instance did not solve"
  | Some r ->
      let b = Sched.Binding.bind loose r.Core.Synthesis.schedule in
      let peaks =
        Sched.Binding.peak_memory ~graph:g loose r.Core.Synthesis.schedule b
      in
      let loads = Assign.Assignment.mem_loads g loose r.Core.Synthesis.assignment in
      Array.iteri
        (fun t per_instance ->
          Array.iter
            (fun p ->
              Alcotest.(check bool)
                "per-instance peak <= per-type load" true (p <= loads.(t)))
            per_instance)
        peaks;
      (* the production accounting and the independent oracle agree *)
      Alcotest.(check bool)
        "Binding.peak_memory == Check.Memory.peaks" true
        (peaks = Check.Memory.peaks g loose r.Core.Synthesis.schedule b)

(* --- the wire format ----------------------------------------------------- *)

let test_jsonl_infeasible_memory () =
  (* one 10-unit buffer, every type capped at 5: nothing can hold it, but
     the deadline alone is trivially meetable *)
  let line =
    {|{"id": "mem-1", "graph": {"nodes": [{"name": "a"}, {"name": "b"}], "edges": [[0, 1, 0, 10]]}, "table": {"types": ["P1", "P2"], "time": [[1, 2], [1, 2]], "cost": [[2, 1], [2, 1]], "mem_capacity": [5, 5]}, "deadline": 9, "algorithm": "greedy"}|}
  in
  match Helpers.solve_line ~line:1 line with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok item ->
      let resp = Core.Synthesis.solve item.Serve.Jsonl.request in
      let out =
        Helpers.json
          (Serve.Jsonl.response_to_string ~id:item.Serve.Jsonl.id resp)
      in
      Alcotest.(check (option string))
        "wire status" (Some "infeasible_memory")
        (Option.bind (Obs.Json.member "status" out) Obs.Json.to_string_opt)

let test_unknown_algorithm_catalogue () =
  (match Assign.Solve.of_name_result "gredy" with
  | Ok _ -> Alcotest.fail "typo accepted"
  | Error msg ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
        scan 0
      in
      Alcotest.(check bool) "names the offender" true (contains msg "\"gredy\"");
      Alcotest.(check bool) "lists the catalogue" true (contains msg "repeat_search"));
  match Assign.Solve.of_name_result "Repeat" with
  | Ok a -> Alcotest.(check bool) "known name still parses" true (a = Assign.Solve.Repeat)
  | Error msg -> Alcotest.failf "valid name rejected: %s" msg

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "memory"
    [
      ( "model",
        [
          quick "transfer cost" test_transfer;
          quick "footprints, loads, feasibility" test_loads_and_footprints;
          quick "Tree_kernel forbid mask" test_forbid_mask;
        ] );
      ( "differential",
        qsuite [ unbounded_equals_loose ]
        @ [ quick "loose == unbounded at 1 and 2 domains" test_loose_across_domains ]
      );
      ( "tight",
        qsuite [ exact_matches_memory_oracle; every_feasible_verdict_is_memory_feasible ]
        @ [ quick "Greedy flips, Exact survives" test_greedy_flips_exact_survives ]
      );
      ( "schedule",
        [ quick "peaks bounded by loads, oracle agrees" test_peak_memory_bounded_by_loads ] );
      ( "wire",
        [
          quick "infeasible_memory over JSONL" test_jsonl_infeasible_memory;
          quick "unknown algorithm names the catalogue" test_unknown_algorithm_catalogue;
        ] );
    ]
