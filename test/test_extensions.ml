(* Tests for local-search refinement, the extension workloads, and the
   Synthesis-level wiring of the extensions. *)

open Helpers

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Local search ----------------------------------------------------- *)

let sample () =
  ( diamond (),
    table lib2
      [ ([ 1; 2 ], [ 6; 2 ]); ([ 2; 3 ], [ 7; 3 ]); ([ 2; 4 ], [ 8; 2 ]); ([ 1; 2 ], [ 5; 1 ]) ] )

let test_refine_never_regresses_and_stays_feasible () =
  let rng = Workloads.Prng.create 71 in
  for trial = 1 to 20 do
    let n = 3 + Workloads.Prng.int rng 8 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
    let tmin = Assign.Assignment.min_makespan g tbl in
    let deadline = tmin + Workloads.Prng.int rng (tmin + 1) in
    match Assign.Dfg_assign.repeat g tbl ~deadline with
    | None -> Alcotest.failf "trial %d: start infeasible" trial
    | Some start ->
        let refined =
          Assign.Local_search.refine g tbl ~deadline ~seed:trial ~steps:500 start
        in
        check_feasible g tbl ~deadline (Some refined);
        let c0 = Assign.Assignment.total_cost tbl start in
        let c1 = Assign.Assignment.total_cost tbl refined in
        if c1 > c0 then Alcotest.failf "trial %d: refinement regressed" trial
  done

let test_refine_finds_optimum_on_small () =
  (* with generous steps on a tiny instance, SA should land on the exact
     optimum found by branch and bound *)
  let g, tbl = sample () in
  let deadline = 6 in
  match (Assign.Greedy.solve g tbl ~deadline, Assign.Exact.solve g tbl ~deadline) with
  | Some start, Some (_, opt) ->
      let refined =
        Assign.Local_search.refine g tbl ~deadline ~seed:3 ~steps:3000 start
      in
      Alcotest.(check int) "reaches optimum" opt
        (Assign.Assignment.total_cost tbl refined)
  | _ -> Alcotest.fail "setup"

let test_refine_rejects_infeasible_start () =
  let g, tbl = sample () in
  Alcotest.check_raises "infeasible start"
    (Invalid_argument "Local_search.refine: starting assignment is infeasible")
    (fun () ->
      ignore (Assign.Local_search.refine g tbl ~deadline:4 ~seed:0 [| 1; 1; 1; 1 |]))

let test_refine_deterministic () =
  let g, tbl = sample () in
  let start = [| 0; 0; 0; 0 |] in
  let r1 = Assign.Local_search.refine g tbl ~deadline:7 ~seed:9 start in
  let r2 = Assign.Local_search.refine g tbl ~deadline:7 ~seed:9 start in
  Alcotest.(check (array int)) "same seed, same result" r1 r2

let test_repeat_plus_at_least_repeat () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 29 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let tmin = Assign.Assignment.min_makespan g tbl in
      let deadline = tmin + (tmin / 4) in
      match
        ( Assign.Dfg_assign.repeat g tbl ~deadline,
          Assign.Local_search.repeat_plus g tbl ~deadline ~seed:5 )
      with
      | Some r, Some rp ->
          let c = Assign.Assignment.total_cost tbl in
          if c rp > c r then Alcotest.failf "%s: repeat_plus regressed" name
      | None, None -> ()
      | _ -> Alcotest.failf "%s: feasibility mismatch" name)
    (Workloads.Filters.dags ())

(* --- Beam search -------------------------------------------------------- *)

let test_beam_sound_on_small_instances () =
  let rng = Workloads.Prng.create 91 in
  for trial = 1 to 25 do
    let n = 2 + Workloads.Prng.int rng 6 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    let tbl =
      Workloads.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:n
        ~max_time:4 ~max_cost:9
    in
    let deadline = Assign.Assignment.min_makespan g tbl + Workloads.Prng.int rng 6 in
    match (Assign.Beam.solve g tbl ~deadline, Assign.Exact.solve g tbl ~deadline) with
    | Some (a, c), Some (_, opt) ->
        check_feasible g tbl ~deadline (Some a);
        Alcotest.(check int) "reported cost is real" (Assign.Assignment.total_cost tbl a) c;
        if c < opt then Alcotest.failf "trial %d: beam beats exact" trial
    | None, None -> ()
    | _ -> Alcotest.failf "trial %d: feasibility mismatch" trial
  done

let test_beam_wide_is_exact_on_tiny () =
  (* width >= k^n explores everything *)
  let g = diamond () in
  let tbl =
    table lib2
      [ ([ 1; 2 ], [ 6; 2 ]); ([ 2; 3 ], [ 7; 3 ]); ([ 2; 4 ], [ 8; 2 ]); ([ 1; 2 ], [ 5; 1 ]) ]
  in
  for deadline = 4 to 10 do
    match
      (Assign.Beam.solve ~width:64 g tbl ~deadline, Assign.Exact.solve g tbl ~deadline)
    with
    | Some (_, c), Some (_, opt) ->
        Alcotest.(check int) (Printf.sprintf "T=%d exhaustive beam" deadline) opt c
    | None, None -> ()
    | _ -> Alcotest.fail "feasibility mismatch"
  done

let test_beam_never_dies () =
  (* the min-time child of a surviving entry is always feasible, so a
     feasible instance always yields a solution *)
  let rng = Workloads.Prng.create 93 in
  for trial = 1 to 20 do
    let n = 2 + Workloads.Prng.int rng 12 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
    let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
    let deadline = Assign.Assignment.min_makespan g tbl in
    match Assign.Beam.solve ~width:2 g tbl ~deadline with
    | Some (a, _) -> check_feasible g tbl ~deadline (Some a)
    | None -> Alcotest.failf "trial %d: beam died on a feasible instance" trial
  done

let test_beam_invalid_width () =
  let g = diamond () in
  let tbl = table lib2 (List.init 4 (fun _ -> ([ 1; 1 ], [ 1; 1 ]))) in
  Alcotest.check_raises "width 0" (Invalid_argument "Beam.solve: width < 1")
    (fun () -> ignore (Assign.Beam.solve ~width:0 g tbl ~deadline:5))

let test_new_drivers_render () =
  Alcotest.(check bool) "ladder" true
    (contains (Core.Experiments.extension_heuristic_ladder ()) "Beam");
  Alcotest.(check bool) "sensitivity" true
    (contains (Core.Experiments.seed_sensitivity ()) "stddev");
  Alcotest.(check bool) "throughput" true
    (contains (Core.Experiments.extension_throughput ()) "rotated period")

(* --- Extension workloads ---------------------------------------------- *)

let test_fir_shape () =
  let g = Workloads.Filters.fir ~taps:16 in
  Alcotest.(check int) "2*taps - 1 nodes" 31 (Dfg.Graph.num_nodes g);
  Alcotest.(check bool) "tree in transpose" true
    (Dfg.Graph.is_tree (Oracle.Transpose.transpose g));
  let g1 = Workloads.Filters.fir ~taps:1 in
  Alcotest.(check int) "degenerate" 1 (Dfg.Graph.num_nodes g1)

let test_biquad_shape () =
  let g = Workloads.Filters.iir_biquad_cascade ~sections:3 in
  Alcotest.(check int) "6 per section + input" 19 (Dfg.Graph.num_nodes g);
  let _, tree = Assign.Dfg_assign.choose_tree g in
  (* duplication compounds along the cascade: most nodes are duplicated,
     making this the heaviest expansion stress-test in the suite *)
  Alcotest.(check int) "heavily duplicated" 16
    (List.length (Dfg.Expand.duplicated_nodes tree));
  Alcotest.(check bool) "has feedback" true
    (List.exists (fun { Dfg.Graph.delay; _ } -> delay > 0) (Dfg.Graph.edges g))

let test_fft_shape () =
  let g = Workloads.Filters.fft_stage ~butterflies:8 in
  Alcotest.(check int) "3 per butterfly" 24 (Dfg.Graph.num_nodes g);
  Alcotest.(check bool) "forest" true (Dfg.Graph.is_tree g);
  Alcotest.(check int) "8 roots" 8 (List.length (Dfg.Graph.roots g))

let test_extension_benchmarks_synthesize () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 31 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let deadline =
        let tmin = Assign.Assignment.min_makespan g tbl in
        tmin + (tmin / 4)
      in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g tbl))
          .Core.Synthesis.result
      with
      | None -> Alcotest.failf "%s: synthesis failed" name
      | Some r ->
          Alcotest.(check bool)
            (name ^ ": schedule valid")
            true
            (Sched.Schedule.respects_precedence g tbl r.Core.Synthesis.schedule))
    (Workloads.Filters.extended ())

(* --- Synthesis wiring -------------------------------------------------- *)

let test_force_directed_scheduler_choice () =
  let g = Workloads.Filters.diffeq () in
  let rng = Workloads.Prng.create 31 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let deadline = Assign.Assignment.min_makespan g tbl + 4 in
  match
    (Core.Synthesis.solve
       (Core.Synthesis.request ~scheduler:Core.Synthesis.Force_directed
          ~algorithm:Core.Synthesis.Repeat ~deadline g tbl))
      .Core.Synthesis.result
  with
  | None -> Alcotest.fail "force-directed pipeline"
  | Some r ->
      Alcotest.(check bool) "meets deadline" true
        (Sched.Schedule.meets_deadline tbl r.Core.Synthesis.schedule ~deadline)

let test_repeat_refined_algorithm () =
  let g = Workloads.Filters.elliptic () in
  let rng = Workloads.Prng.create 31 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let deadline = Assign.Assignment.min_makespan g tbl + 8 in
  let cost algo =
    match Assign.Solve.dispatch algo g tbl ~deadline with
    | Some a -> Assign.Assignment.total_cost tbl a
    | None -> Alcotest.fail "feasible"
  in
  Alcotest.(check bool) "refined <= repeat" true
    (cost Core.Synthesis.Repeat_refined <= cost Core.Synthesis.Repeat)

let () =
  Alcotest.run "extensions"
    [
      ( "local_search",
        [
          quick "never regresses, stays feasible" test_refine_never_regresses_and_stays_feasible;
          quick "finds optimum on small instance" test_refine_finds_optimum_on_small;
          quick "rejects infeasible start" test_refine_rejects_infeasible_start;
          quick "deterministic per seed" test_refine_deterministic;
          quick "repeat_plus >= repeat" test_repeat_plus_at_least_repeat;
        ] );
      ( "beam",
        [
          quick "sound on small instances" test_beam_sound_on_small_instances;
          quick "exhaustive width = exact" test_beam_wide_is_exact_on_tiny;
          quick "never dies" test_beam_never_dies;
          quick "invalid width" test_beam_invalid_width;
          quick "new drivers render" test_new_drivers_render;
        ] );
      ( "extension workloads",
        [
          quick "fir" test_fir_shape;
          quick "biquad cascade" test_biquad_shape;
          quick "fft stage" test_fft_shape;
          quick "all synthesize" test_extension_benchmarks_synthesize;
        ] );
      ( "synthesis wiring",
        [
          quick "force-directed scheduler" test_force_directed_scheduler_choice;
          quick "Repeat_refined" test_repeat_refined_algorithm;
        ] );
    ]
