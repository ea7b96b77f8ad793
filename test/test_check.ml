(* lib/check: the independent result-validation layer.

   Known-good solver outputs — the six paper benchmarks across all
   algorithms and deadlines, plus random DFGs — must validate clean, at 1
   and 4 domains with HETSCHED_VALIDATE forced on. The mutation harness
   then corrupts those outputs one class at a time (time bump, type swap,
   config shrink, precedence break, delay-edge break, out-of-range type)
   and asserts the matching checker flags every mutant: this tests the
   validators themselves, not the solvers. *)

open Helpers

let p1 = Par.Pool.create ~domains:1 ()
let p4 = Par.Pool.create ~domains:4 ()

let bench_instances () =
  List.map
    (fun (name, g) ->
      let seed = Core.Experiments.seed_of_name name in
      let tbl =
        Workloads.Tables.for_graph (Workloads.Prng.create seed) ~library:lib3 g
      in
      (name, g, tbl))
    (Workloads.Filters.all ())

let synthesize name g tbl ~deadline =
  match
    (Core.Synthesis.solve
       (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline g
          tbl))
      .Core.Synthesis.result
  with
  | Some r -> r
  | None -> Alcotest.failf "%s: synthesis infeasible at T=%d" name deadline

let mid_deadline g tbl = List.nth (Core.Experiments.deadlines g tbl) 2

let check_ok name report =
  Alcotest.(check string)
    (name ^ ": clean")
    (Printf.sprintf "%s: ok (%d facts checked)" report.Check.Violation.checker
       report.Check.Violation.checked)
    (Check.Violation.summary report)

let check_caught name ~code report =
  if Check.Violation.ok report then
    Alcotest.failf "%s: mutant not flagged (%s)" name
      (Check.Violation.summary report);
  if not (Check.Violation.has_code report code) then
    Alcotest.failf "%s: expected code %s, got: %s" name code
      (Check.Violation.summary report)

(* --- clean results pass every checker ------------------------------------ *)

let validate_result name g tbl ~deadline (r : Core.Synthesis.result) =
  check_ok (name ^ " assignment")
    (Check.Assignment.check ~expect_cost:r.cost g tbl r.assignment ~deadline);
  check_ok (name ^ " schedule")
    (Check.Schedule.check ~assignment:r.assignment ~config:r.config g tbl
       r.schedule ~deadline);
  check_ok (name ^ " config") (Check.Config.check tbl r.schedule ~config:r.config);
  Alcotest.(check bool) (name ^ " binding") true
    (Oracle.Binding.is_valid tbl r.schedule (Sched.Binding.bind tbl r.schedule));
  (* a static schedule is trivially cyclic-legal at its own length *)
  check_ok (name ^ " cyclic")
    (Oracle.Cyclic.check g tbl r.schedule
       ~period:(max 1 (Sched.Schedule.length tbl r.schedule)))

let test_benchmarks_clean () =
  List.iter
    (fun (name, g, tbl) ->
      let deadline = mid_deadline g tbl in
      validate_result name g tbl ~deadline (synthesize name g tbl ~deadline))
    (bench_instances ())

(* --- the acceptance sweep: all algorithms x deadlines x {1,4} domains ----- *)

let sweep_algorithms g ~tree =
  let base =
    Core.Synthesis.
      [ Greedy; Greedy_iterative; Once; Repeat; Repeat_search; Repeat_refined; Beam ]
  in
  let base = if tree then base @ [ Core.Synthesis.Tree ] else base in
  if Dfg.Graph.num_nodes g <= 20 then base @ [ Core.Synthesis.Exact ] else base

let test_validated_benchmark_sweep () =
  let trees = Workloads.Filters.trees () in
  Check.Env.set_override (Some true);
  Fun.protect
    ~finally:(fun () -> Check.Env.set_override None)
    (fun () ->
      List.iter
        (fun (name, g) ->
          let algorithms =
            sweep_algorithms g ~tree:(List.mem_assoc name trees)
          in
          let run pool =
            Core.Experiments.run_benchmark ~pool ~name
              ~seed:(Core.Experiments.seed_of_name name)
              ~algorithms g
          in
          (* every grid cell and per-row configuration solve is audited
             inside run_benchmark; a violation raises Check.Violation.Failed *)
          let r1 = run p1 in
          let r4 = run p4 in
          Alcotest.(check bool)
            (name ^ ": validated reports bit-identical across domains")
            true (r1 = r4))
        (Workloads.Filters.all ()))

(* --- mutation harness ----------------------------------------------------- *)

let mutate name g tbl ~deadline (r : Core.Synthesis.result) =
  (match Oracle.Mutate.bump_start tbl r.schedule ~deadline with
  | None -> Alcotest.failf "%s: no bump_start site" name
  | Some (what, s) ->
      check_caught
        (Printf.sprintf "%s bump_start (%s)" name what)
        ~code:"deadline"
        (Check.Schedule.check g tbl s ~deadline));
  (match Oracle.Mutate.swap_type tbl r.assignment with
  | None -> Alcotest.failf "%s: no swap_type site" name
  | Some (what, a) ->
      let report = Check.Assignment.check ~expect_cost:r.cost g tbl a ~deadline in
      if Check.Violation.ok report then
        Alcotest.failf "%s swap_type (%s): mutant not flagged" name what;
      Alcotest.(check bool)
        (Printf.sprintf "%s swap_type (%s): cost or path flagged" name what)
        true
        (Check.Violation.has_code report "cost-mismatch"
        || Check.Violation.has_code report "path-over-deadline"));
  (match Oracle.Mutate.out_of_range_type tbl r.assignment with
  | None -> Alcotest.failf "%s: no out_of_range site" name
  | Some (what, a) ->
      check_caught
        (Printf.sprintf "%s out_of_range (%s)" name what)
        ~code:"type-out-of-range"
        (Check.Assignment.check g tbl a ~deadline));
  (match Oracle.Mutate.shrink_config tbl r.schedule ~config:r.config with
  | None -> Alcotest.failf "%s: no shrink_config site" name
  | Some (what, config) ->
      check_caught
        (Printf.sprintf "%s shrink_config (%s)" name what)
        ~code:"config-under-provision"
        (Check.Config.check tbl r.schedule ~config);
      check_caught
        (Printf.sprintf "%s shrink_config occupancy (%s)" name what)
        ~code:"occupancy"
        (Check.Schedule.check ~config g tbl r.schedule ~deadline));
  (match Oracle.Mutate.break_precedence g tbl r.schedule with
  | None -> ()  (* edgeless graph: nothing to break *)
  | Some (what, s) ->
      check_caught
        (Printf.sprintf "%s break_precedence (%s)" name what)
        ~code:"precedence"
        (Check.Schedule.check g tbl s ~deadline));
  let period = max 1 (Sched.Schedule.length tbl r.schedule) in
  match Oracle.Mutate.break_delay g tbl r.schedule ~period with
  | None -> ()  (* feed-forward graph: no delay edge to break *)
  | Some (what, s) ->
      check_caught
        (Printf.sprintf "%s break_delay (%s)" name what)
        ~code:"delay-edge"
        (Oracle.Cyclic.check g tbl s ~period)

let test_mutations_on_benchmarks () =
  let delay_benchmarks = ref 0 in
  List.iter
    (fun (name, g, tbl) ->
      let deadline = mid_deadline g tbl in
      if List.exists (fun e -> e.Dfg.Graph.delay > 0) (Dfg.Graph.edges g) then
        incr delay_benchmarks;
      mutate name g tbl ~deadline (synthesize name g tbl ~deadline))
    (bench_instances ());
  (* the delay-edge class must actually have been exercised *)
  Alcotest.(check bool) "some benchmark has delay edges" true (!delay_benchmarks > 0)

let mutations_on_random_dfgs =
  QCheck.Test.make ~count:30 ~name:"mutation classes caught on random DFGs"
    QCheck.(triple (int_range 0 1000) (int_range 4 24) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Workloads.Prng.create seed in
      let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:extra in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let deadline = tmin + (tmin / 3) in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g tbl))
          .Core.Synthesis.result
      with
      | None -> QCheck.assume_fail ()
      | Some r ->
          validate_result "random" g tbl ~deadline r;
          mutate "random" g tbl ~deadline r;
          true)

(* --- Check.Energy: leveled solves and the swap_level mutant --------------- *)

(* A silently swapped frequency level keeps the base FU type (so the
   structural checkers stay green) while changing the true energy; only
   the energy oracle's independent re-summation can flag it. *)
let leveled name g tbl =
  let etbl, mapping =
    Fulib.Dvfs.expand tbl
      ~levels:
        (Fulib.Dvfs.uniform ~levels:3 ~types:(Fulib.Table.num_types tbl))
  in
  let deadline = mid_deadline g tbl in
  (etbl, mapping, synthesize name g etbl ~deadline)

let test_swap_level_mutations () =
  List.iter
    (fun (name, g, tbl) ->
      let etbl, mapping, r = leveled name g tbl in
      check_ok (name ^ " energy")
        (Check.Energy.check ~base:tbl ~mapping etbl r.Core.Synthesis.assignment
           ~expect_energy:r.Core.Synthesis.cost);
      match Oracle.Mutate.swap_level etbl ~mapping r.Core.Synthesis.assignment with
      | None -> Alcotest.failf "%s: no swap_level site" name
      | Some (what, a) ->
          check_caught
            (Printf.sprintf "%s swap_level (%s)" name what)
            ~code:"energy-mismatch"
            (Check.Energy.check ~base:tbl ~mapping etbl a
               ~expect_energy:r.Core.Synthesis.cost))
    (bench_instances ())

let swap_level_on_random_dfgs =
  QCheck.Test.make ~count:30 ~name:"swap_level caught on random leveled DFGs"
    QCheck.(triple (int_range 0 1000) (int_range 4 24) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Workloads.Prng.create seed in
      let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:extra in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let etbl, mapping =
        Fulib.Dvfs.expand tbl
          ~levels:
            (Fulib.Dvfs.uniform ~levels:3 ~types:(Fulib.Table.num_types tbl))
      in
      let tmin = Core.Synthesis.min_deadline g etbl in
      let deadline = tmin + (tmin / 3) in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g etbl))
          .Core.Synthesis.result
      with
      | None -> QCheck.assume_fail ()
      | Some r ->
          check_ok "random energy"
            (Check.Energy.check ~base:tbl ~mapping etbl r.assignment
               ~expect_energy:r.cost);
          (match Oracle.Mutate.swap_level etbl ~mapping r.assignment with
          | None -> ()  (* every sibling ladder is cost-flat: nothing to swap *)
          | Some (what, a) ->
              check_caught
                (Printf.sprintf "random swap_level (%s)" what)
                ~code:"energy-mismatch"
                (Check.Energy.check ~base:tbl ~mapping etbl a
                   ~expect_energy:r.cost));
          true)

(* --- Check.Memory: clean results, differential, mutation ------------------ *)

(* Each paper benchmark gets data sizes and a loose (never-pruning) finite
   capacity, so the memory oracle runs for real: clean solves must audit
   clean, the oracle's independently derived peaks must equal the
   production accounting, and the shrink_mem_capacity mutant must be
   flagged with the static load code. *)
let test_memory_oracle () =
  List.iter
    (fun (name, g, tbl) ->
      let rng = Workloads.Prng.create (Core.Experiments.seed_of_name name) in
      let g = Workloads.Random_dfg.with_sizes rng g in
      let loose = Oracle.Tables.mem_loose g tbl in
      let deadline = mid_deadline g loose in
      let r = synthesize name g loose ~deadline in
      let b = Sched.Binding.bind loose r.schedule in
      check_ok (name ^ " memory") (Check.Memory.check g loose r.schedule b);
      Alcotest.(check bool)
        (name ^ ": oracle peaks == Binding.peak_memory")
        true
        (Check.Memory.peaks g loose r.schedule b
        = Sched.Binding.peak_memory ~graph:g loose r.schedule b);
      match Oracle.Mutate.shrink_mem_capacity g loose r.assignment with
      | None -> Alcotest.failf "%s: no shrink_mem_capacity site" name
      | Some (what, shrunk) ->
          check_caught
            (Printf.sprintf "%s shrink_mem_capacity (%s)" name what)
            ~code:"mem-load-over-capacity"
            (Check.Memory.check g shrunk r.schedule b))
    (bench_instances ())

(* --- the cyclic oracle vs the scheduler's own simulation ------------------ *)

let test_cyclic_differential () =
  List.iter
    (fun (name, g, tbl) ->
      let deadline = mid_deadline g tbl in
      let r = synthesize name g tbl ~deadline in
      let len = max 1 (Sched.Schedule.length tbl r.schedule) in
      let min_p = Sched.Cyclic_schedule.min_period g tbl r.schedule in
      for period = max 1 (min_p - 2) to len do
        let sim =
          Sched.Cyclic_schedule.simulate g tbl r.schedule ~period ~iterations:4
        in
        (* min_period also folds in a resource bound; the edge-legality
           oracle must agree with the simulated dependences exactly *)
        Alcotest.(check bool)
          (Printf.sprintf "%s period %d: Oracle.Cyclic == simulate" name period)
          sim.Sched.Cyclic_schedule.ok
          (legal_period g tbl r.schedule ~period)
      done)
    (bench_instances ())

let test_rotation_validates () =
  let validated = ref 0 in
  List.iter
    (fun (name, g, tbl) ->
      let deadline = mid_deadline g tbl in
      let r = synthesize name g tbl ~deadline in
      match
        Sched.Rotation.run g tbl r.assignment ~config:r.config
          ~rotations:(2 * Dfg.Graph.num_nodes g)
      with
      | None -> ()
      | Some rot ->
          incr validated;
          check_ok (name ^ " rotation")
            (Oracle.Cyclic.check_rotation g tbl rot ~config:r.config))
    (bench_instances ());
  Alcotest.(check bool) "rotation validated somewhere" true (!validated > 0)

(* --- the HETSCHED_VALIDATE switch ----------------------------------------- *)

let test_env_parsing () =
  let fake v k = if k = "HETSCHED_VALIDATE" then v else None in
  let enabled v = Check.Env.enabled ~getenv:(fake v) () in
  Alcotest.(check bool) "unset -> off" false (enabled None);
  Alcotest.(check bool) "empty -> off" false (enabled (Some ""));
  Alcotest.(check bool) "whitespace -> off" false (enabled (Some "  "));
  Alcotest.(check bool) "0 -> off" false (enabled (Some "0"));
  Alcotest.(check bool) "false -> off" false (enabled (Some "FALSE"));
  Alcotest.(check bool) "no -> off" false (enabled (Some "no"));
  Alcotest.(check bool) "off -> off" false (enabled (Some "off"));
  Alcotest.(check bool) "1 -> on" true (enabled (Some "1"));
  Alcotest.(check bool) "true -> on" true (enabled (Some "true"));
  Alcotest.(check bool) "yes -> on" true (enabled (Some " yes "));
  Check.Env.set_override (Some true);
  Alcotest.(check bool) "override wins" true (enabled (Some "0"));
  Check.Env.set_override (Some false);
  Alcotest.(check bool) "override off wins" false (enabled (Some "1"));
  Check.Env.set_override None;
  Alcotest.(check bool) "override cleared" false (enabled None)

let test_synthesis_raises_on_corrupt () =
  (* the wiring: a corrupt result pushed through Synthesis.validate raises *)
  let name, g, tbl = List.hd (bench_instances ()) in
  let deadline = mid_deadline g tbl in
  let r = synthesize name g tbl ~deadline in
  Core.Synthesis.validate g tbl ~deadline r;
  (* clean: no exception *)
  match Oracle.Mutate.swap_type tbl r.assignment with
  | None -> Alcotest.fail "no swap site"
  | Some (_, a) -> (
      match Core.Synthesis.validate g tbl ~deadline { r with assignment = a } with
      | () -> Alcotest.fail "corrupt result validated"
      | exception Check.Violation.Failed report ->
          Alcotest.(check bool)
            "failure is diagnosable" true
            (not (Check.Violation.ok report)))

(* --- Violation plumbing --------------------------------------------------- *)

let test_violation_reports () =
  let b = Check.Violation.builder () in
  Check.Violation.fact b;
  Check.Violation.fact b;
  let clean = Check.Violation.report b ~checker:"Check.Test" in
  Alcotest.(check bool) "clean ok" true (Check.Violation.ok clean);
  Alcotest.(check int) "facts counted" 2 clean.Check.Violation.checked;
  Alcotest.(check string) "clean summary" "Check.Test: ok (2 facts checked)"
    (Check.Violation.summary clean);
  let b = Check.Violation.builder () in
  Check.Violation.add b ~node:3 "some-code" "value %d" 42;
  let bad = Check.Violation.report b ~checker:"Check.Test" in
  Alcotest.(check bool) "bad not ok" false (Check.Violation.ok bad);
  Alcotest.(check bool) "has code" true (Check.Violation.has_code bad "some-code");
  Alcotest.(check bool) "no other code" false (Check.Violation.has_code bad "other");
  let merged = Check.Violation.merge ~checker:"Check.Merged" [ clean; bad ] in
  Alcotest.(check int) "merged facts" 3 merged.Check.Violation.checked;
  Alcotest.(check bool) "merged keeps violations" true
    (Check.Violation.has_code merged "some-code")

let () =
  Alcotest.run "check"
    [
      ( "clean",
        [
          quick "paper benchmarks validate clean" test_benchmarks_clean;
          quick "rotation results validate clean" test_rotation_validates;
        ] );
      ( "sweep",
        [
          quick "all algorithms x deadlines x {1,4} domains"
            test_validated_benchmark_sweep;
        ] );
      ( "mutations",
        [
          quick "all classes caught on benchmarks" test_mutations_on_benchmarks;
          QCheck_alcotest.to_alcotest mutations_on_random_dfgs;
          quick "swap_level caught on leveled benchmarks"
            test_swap_level_mutations;
          QCheck_alcotest.to_alcotest swap_level_on_random_dfgs;
          quick "memory oracle: clean, differential, mutants"
            test_memory_oracle;
        ] );
      ( "cyclic",
        [ quick "differential vs simulate" test_cyclic_differential ] );
      ( "wiring",
        [
          quick "HETSCHED_VALIDATE parsing" test_env_parsing;
          quick "Synthesis.validate raises on corrupt results"
            test_synthesis_raises_on_corrupt;
        ] );
      ( "violation",
        [ quick "builders, summaries, merge" test_violation_reports ] );
    ]
