(* DVFS levels + online incremental re-solve.

   Three layers under test: the Fulib.Dvfs level model (scaling laws,
   table expansion, mapping geometry), Sched.Reclaim (ALAP slack
   reclamation must keep every oracle green and only ever lower energy),
   and Online.Controller (the qcheck differential: an incremental
   resolve through the long-lived Repeat_session must be bit-identical
   to a from-scratch re-synthesis on the drifted table — that identity
   is what makes the bench group's speedup a free lunch). *)

open Helpers

let mid_deadline g tbl =
  let tmin = Core.Synthesis.min_deadline g tbl in
  tmin + (tmin / 5)

let bench name =
  let g = List.assoc name (Workloads.Filters.all ()) in
  let seed = Core.Experiments.seed_of_name name in
  let tbl =
    Workloads.Tables.for_graph (Workloads.Prng.create seed) ~library:lib3 g
  in
  (g, tbl)

(* --- the level model ------------------------------------------------------ *)

let test_scaling_laws () =
  let l75 = Fulib.Dvfs.level 75 in
  Alcotest.(check int) "75% freq" 75 l75.Fulib.Dvfs.freq_pct;
  Alcotest.(check int) "75% time = ceil(10000/75)" 134 l75.Fulib.Dvfs.time_pct;
  Alcotest.(check int) "75% energy = 75^2/100" 56 l75.Fulib.Dvfs.energy_pct;
  let l50 = Fulib.Dvfs.level 50 in
  Alcotest.(check int) "50% time doubles" 200 l50.Fulib.Dvfs.time_pct;
  Alcotest.(check int) "50% energy quarters" 25 l50.Fulib.Dvfs.energy_pct;
  Alcotest.(check int) "scale_time rounds up" 3 (Fulib.Dvfs.scale_time l75 2);
  Alcotest.(check int) "scale_time floor 1" 1 (Fulib.Dvfs.scale_time l50 0);
  Alcotest.(check int) "scale_energy rounds" 1 (Fulib.Dvfs.scale_energy l75 2);
  Alcotest.(check int) "nominal is identity" 7
    (Fulib.Dvfs.scale_time Fulib.Dvfs.nominal 7);
  Alcotest.check_raises "freq 0 rejected"
    (Invalid_argument "Dvfs.level: freq_pct must be in 1..100")
    (fun () -> ignore (Fulib.Dvfs.level 0));
  Alcotest.check_raises "ladder must start nominal"
    (Invalid_argument "Dvfs.ladder: level 0 must be the nominal 100%")
    (fun () -> ignore (Fulib.Dvfs.of_freqs [ [ 75; 50 ] ]))

let test_uniform_ladders () =
  let ls = Fulib.Dvfs.uniform ~levels:3 ~types:2 in
  Alcotest.(check int) "one ladder per type" 2 (Array.length ls);
  Array.iter
    (fun ladder ->
      Alcotest.(check (list int)) "100/75/50" [ 100; 75; 50 ]
        (Array.to_list
           (Array.map (fun l -> l.Fulib.Dvfs.freq_pct) ladder)))
    ls;
  let one = Fulib.Dvfs.uniform ~levels:1 ~types:3 in
  Array.iter
    (fun ladder ->
      Alcotest.(check int) "single level is nominal" 100
        ladder.(0).Fulib.Dvfs.freq_pct)
    one

let test_expand_identity () =
  let g, tbl = bench "elliptic" in
  let k = Fulib.Table.num_types tbl in
  let etbl, mapping =
    Fulib.Dvfs.expand tbl ~levels:(Fulib.Dvfs.uniform ~levels:1 ~types:k)
  in
  Alcotest.(check int) "same width" k (Fulib.Table.num_types etbl);
  for v = 0 to Fulib.Table.num_nodes tbl - 1 do
    for t = 0 to k - 1 do
      Alcotest.(check int) "time preserved"
        (Fulib.Table.time tbl ~node:v ~ftype:t)
        (Fulib.Table.time etbl ~node:v ~ftype:t);
      Alcotest.(check int) "cost preserved"
        (Fulib.Table.cost tbl ~node:v ~ftype:t)
        (Fulib.Table.cost etbl ~node:v ~ftype:t)
    done
  done;
  (* nominal-only expansion must not change what the solver returns *)
  let deadline = mid_deadline g tbl in
  let a = Assign.Dfg_assign.repeat g tbl ~deadline in
  let a' = Assign.Dfg_assign.repeat g etbl ~deadline in
  Alcotest.(check bool) "solver unchanged by identity expansion" true (a = a');
  Alcotest.(check int) "mapping is the identity" 0
    mapping.Fulib.Dvfs.level.(k - 1)

let test_expand_cells_and_mapping () =
  let tbl =
    table lib2 [ ([ 2; 4 ], [ 9; 3 ]); ([ 1; 3 ], [ 7; 2 ]) ]
  in
  let levels = Fulib.Dvfs.uniform ~levels:3 ~types:2 in
  let etbl, m = Fulib.Dvfs.expand tbl ~levels in
  Alcotest.(check int) "2 types x 3 levels" 6 (Fulib.Table.num_types etbl);
  Alcotest.(check int) "6 expanded" 6 (Fulib.Dvfs.num_expanded m);
  Alcotest.(check int) "2 base" 2 (Fulib.Dvfs.num_base m);
  Alcotest.(check (list int)) "siblings of first A level" [ 0; 1; 2 ]
    (Fulib.Dvfs.siblings m 1);
  Alcotest.(check (list int)) "siblings of last B level" [ 3; 4; 5 ]
    (Fulib.Dvfs.siblings m 5);
  for e = 0 to 5 do
    let b = m.Fulib.Dvfs.base.(e) in
    let l = levels.(b).(m.Fulib.Dvfs.level.(e)) in
    for v = 0 to 1 do
      Alcotest.(check int)
        (Printf.sprintf "cell time v%d e%d" v e)
        (Fulib.Dvfs.scale_time l (Fulib.Table.time tbl ~node:v ~ftype:b))
        (Fulib.Table.time etbl ~node:v ~ftype:e);
      Alcotest.(check int)
        (Printf.sprintf "cell cost v%d e%d" v e)
        (Fulib.Dvfs.scale_energy l (Fulib.Table.cost tbl ~node:v ~ftype:b))
        (Fulib.Table.cost etbl ~node:v ~ftype:e)
    done
  done;
  let name e = Fulib.Library.type_name (Fulib.Table.library etbl) e in
  Alcotest.(check string) "nominal keeps the bare name" "A" (name 0);
  Alcotest.(check string) "leveled name" "A@75" (name 1);
  Alcotest.(check string) "leveled name" "B@50" (name 5)

(* --- a leveled pipeline solve is cheaper and audits clean ----------------- *)

let leveled_request ?(levels = 3) ?(validate = false) g tbl ~deadline =
  Core.Synthesis.request
    ~levels:
      (Fulib.Dvfs.uniform ~levels ~types:(Fulib.Table.num_types tbl))
    ~validate ~algorithm:Core.Synthesis.Repeat ~deadline g tbl

let test_leveled_solve_saves_energy () =
  List.iter
    (fun name ->
      let g, tbl = bench name in
      let deadline = mid_deadline g tbl in
      let plain =
        Core.Synthesis.solve
          (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline g
             tbl)
      in
      let leveled =
        Core.Synthesis.solve (leveled_request ~validate:true g tbl ~deadline)
      in
      match (plain.Core.Synthesis.result, leveled.Core.Synthesis.result) with
      | Some p, Some l ->
          Alcotest.(check bool) (name ^ ": leveled audits clean") true
            (leveled.Core.Synthesis.status = Core.Synthesis.Ok
            && leveled.Core.Synthesis.violations = []);
          Alcotest.(check bool)
            (name ^ ": levels never cost more energy")
            true
            (l.Core.Synthesis.cost <= p.Core.Synthesis.cost);
          let d = Option.get leveled.Core.Synthesis.dvfs in
          Alcotest.(check int)
            (name ^ ": energy_after is the result cost")
            l.Core.Synthesis.cost d.Core.Synthesis.energy_after;
          Alcotest.(check bool)
            (name ^ ": stats carry the energy facts")
            true
            (List.mem_assoc "energy" leveled.Core.Synthesis.stats
            && List.mem_assoc "energy_saved" leveled.Core.Synthesis.stats
            && List.mem_assoc "levels" leveled.Core.Synthesis.stats)
      | _ -> Alcotest.failf "%s: synthesis infeasible" name)
    [ "elliptic"; "diffeq"; "volterra" ]

(* --- reclamation: the retrofit scenario ----------------------------------- *)

(* Retrofit 3 levels onto a nominal (unleveled) solve: phase 1 never saw
   the ladder, so the schedule's slack is intact and reclamation must
   find real moves — and every oracle must stay green afterwards. *)
let retrofit name =
  let g, tbl = bench name in
  let deadline = 2 * Core.Synthesis.min_deadline g tbl in
  let etbl, mapping =
    Fulib.Dvfs.expand tbl
      ~levels:(Fulib.Dvfs.uniform ~levels:3 ~types:(Fulib.Table.num_types tbl))
  in
  match Assign.Dfg_assign.repeat g tbl ~deadline with
  | None -> Alcotest.failf "%s: nominal solve infeasible" name
  | Some a -> (
      match Sched.Min_resource.run g tbl a ~deadline with
      | None -> Alcotest.failf "%s: nominal schedule failed" name
      | Some { Sched.Min_resource.schedule; config; _ } ->
          let embed =
            Array.map
              (fun b -> mapping.Fulib.Dvfs.first.(b))
              schedule.Sched.Schedule.assignment
          in
          let s =
            {
              Sched.Schedule.start = Array.copy schedule.Sched.Schedule.start;
              assignment = embed;
            }
          in
          let config' = Array.make (Fulib.Table.num_types etbl) 0 in
          Array.iteri
            (fun b c -> config'.(mapping.Fulib.Dvfs.first.(b)) <- c)
            config;
          (g, tbl, etbl, mapping, config', deadline, s))

let test_reclaim_retrofit () =
  List.iter
    (fun name ->
      let g, base, etbl, mapping, config, deadline, s = retrofit name in
      let rc = Sched.Reclaim.run g etbl ~mapping ~config ~deadline s in
      Alcotest.(check bool) (name ^ ": reclamation finds moves") true
        (rc.Sched.Reclaim.moves > 0);
      Alcotest.(check bool) (name ^ ": energy only drops") true
        (rc.Sched.Reclaim.energy_after < rc.Sched.Reclaim.energy_before);
      let s' = rc.Sched.Reclaim.schedule in
      Array.iteri
        (fun v at ->
          if at < s.Sched.Schedule.start.(v) then
            Alcotest.failf "%s: node %d moved earlier" name v;
          Alcotest.(check int)
            (Printf.sprintf "%s: node %d keeps its base type" name v)
            mapping.Fulib.Dvfs.base.(s.Sched.Schedule.assignment.(v))
            mapping.Fulib.Dvfs.base.(s'.Sched.Schedule.assignment.(v)))
        s'.Sched.Schedule.start;
      let config' = Sched.Schedule.peak_usage etbl s' in
      let ok r =
        if not (Check.Violation.ok r) then
          Alcotest.failf "%s: %s" name (Check.Violation.summary r)
      in
      ok (Check.Schedule.check ~config:config' g etbl s' ~deadline);
      ok (Check.Config.check etbl s' ~config:config');
      ok
        (Check.Energy.check ~base ~mapping etbl s'.Sched.Schedule.assignment
           ~expect_energy:rc.Sched.Reclaim.energy_after);
      (* pooled physical instances never grow: per base type, the
         re-leveled schedule's peak CONCURRENT use (summed across sibling
         levels, which time-share one pool) stays within the original
         allocation — note the per-level config' totals can exceed this,
         since summing per-level peaks ignores the time-sharing *)
      let nb = Fulib.Dvfs.num_base mapping in
      let cap = Array.make nb 0 in
      Array.iteri
        (fun e c ->
          cap.(mapping.Fulib.Dvfs.base.(e)) <-
            cap.(mapping.Fulib.Dvfs.base.(e)) + c)
        config;
      let pooled = Array.make_matrix nb deadline 0 in
      Array.iteri
        (fun v at ->
          let e = s'.Sched.Schedule.assignment.(v) in
          let b = mapping.Fulib.Dvfs.base.(e) in
          for step = at to min (at + Fulib.Table.time etbl ~node:v ~ftype:e) deadline - 1 do
            pooled.(b).(step) <- pooled.(b).(step) + 1
          done)
        s'.Sched.Schedule.start;
      Array.iteri
        (fun b row ->
          let peak = Array.fold_left max 0 row in
          if peak > cap.(b) then
            Alcotest.failf "%s: base type %d peaks at %d for %d instances"
              name b peak cap.(b))
        pooled)
    [ "elliptic"; "diffeq" ]

let test_reclaim_noop_on_missed_deadline () =
  let g, _, etbl, mapping, config, deadline, s = retrofit "diffeq" in
  let rc = Sched.Reclaim.run g etbl ~mapping ~config ~deadline:(deadline / 2) s in
  ignore deadline;
  Alcotest.(check int) "missed deadline: no moves" 0 rc.Sched.Reclaim.moves;
  Alcotest.(check bool) "missed deadline: schedule untouched" true
    (rc.Sched.Reclaim.schedule == s)

(* --- the online controller ------------------------------------------------ *)

let random_instance seed n extra =
  let rng = Workloads.Prng.create seed in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:extra in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  (g, tbl, mid_deadline g tbl)

let outcome_equal (a : Online.Controller.outcome option)
    (b : Online.Controller.outcome option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Online.Controller.assignment = b.Online.Controller.assignment
      && a.Online.Controller.cost = b.Online.Controller.cost
      && a.Online.Controller.schedule = b.Online.Controller.schedule
      && a.Online.Controller.config = b.Online.Controller.config
  | _ -> false

let test_controller_basics () =
  let g, tbl, deadline = random_instance 7 24 6 in
  let ctrl = Online.Controller.create g tbl ~deadline in
  (match Online.Controller.current ctrl with
  | None -> Alcotest.fail "initial design infeasible"
  | Some o ->
      Alcotest.(check int) "initial cost is the repeat cost"
        (Assign.Assignment.total_cost tbl
           (Option.get (Assign.Dfg_assign.repeat g tbl ~deadline)))
        o.Online.Controller.cost);
  Alcotest.(check bool) "fresh design not at risk" false
    (Online.Controller.at_risk ctrl);
  (* an enormous drift on every node must register as risk *)
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    Online.Controller.scale_node ctrl ~node:v ~pct:800
  done;
  Alcotest.(check bool) "800% drift is at risk" true
    (Online.Controller.at_risk ctrl);
  Alcotest.check_raises "bad row width"
    (Invalid_argument "Controller.set_times: row width mismatch") (fun () ->
      Online.Controller.set_times ctrl ~node:0 [| 1 |]);
  Alcotest.check_raises "time zero rejected"
    (Invalid_argument "Controller.set_times: time < 1") (fun () ->
      Online.Controller.set_times ctrl ~node:0
        (Array.make (Fulib.Table.num_types tbl) 0));
  Alcotest.check_raises "time above the table bound rejected"
    (Invalid_argument "Controller.set_times: time > 4294967296") (fun () ->
      Online.Controller.set_times ctrl ~node:0
        (Array.make (Fulib.Table.num_types tbl) (Fulib.Table.max_cell + 1)));
  (* drift saturates at the table bound, so the rebuilt table is valid *)
  for _ = 1 to 20 do
    Online.Controller.scale_node ctrl ~node:0 ~pct:800
  done;
  ignore (Online.Controller.resolve ctrl)

let test_controller_leveled_round_trip () =
  (* drift a leveled elliptic design through risky territory and back;
     the controller must recover the original energy when times return
     to nominal *)
  let g, tbl = bench "elliptic" in
  let deadline = mid_deadline g tbl in
  let etbl, _ =
    Fulib.Dvfs.expand tbl
      ~levels:(Fulib.Dvfs.uniform ~levels:3 ~types:(Fulib.Table.num_types tbl))
  in
  let ctrl = Online.Controller.create g etbl ~deadline in
  let initial = Online.Controller.current ctrl in
  (match initial with
  | None -> Alcotest.fail "leveled elliptic infeasible"
  | Some _ -> ());
  let nominal_row v =
    Array.init (Fulib.Table.num_types etbl) (fun t ->
        Fulib.Table.time etbl ~node:v ~ftype:t)
  in
  let saved = Array.init (Dfg.Graph.num_nodes g) nominal_row in
  Online.Controller.scale_node ctrl ~node:3 ~pct:300;
  ignore (Online.Controller.resolve ctrl);
  Online.Controller.set_times ctrl ~node:3 saved.(3);
  let back = Online.Controller.resolve ctrl in
  Alcotest.(check bool) "nominal times restore the initial design" true
    (outcome_equal initial back)

(* The differential: after every perturbation, the incremental resolve
   and a from-scratch re-synthesis must agree exactly — same feasibility,
   same assignment, same schedule, same cost. 30 random DAGs x 4 rounds. *)
let incremental_equals_scratch =
  QCheck.Test.make ~count:30 ~name:"incremental re-solve == from-scratch"
    QCheck.(
      pair (int_range 0 10_000)
        (pair (int_range 6 40) (int_range 0 12)))
    (fun (seed, (n, extra)) ->
      let g, tbl, deadline = random_instance seed n extra in
      let ctrl = Online.Controller.create g tbl ~deadline in
      let rng = Workloads.Prng.create (seed lxor 0xd1ff) in
      let rounds = 4 in
      let ok = ref true in
      for _ = 1 to rounds do
        let node = Workloads.Prng.int rng n in
        let pct = Workloads.Prng.int_in rng 50 300 in
        Online.Controller.scale_node ctrl ~node ~pct;
        let scratch = Online.Controller.resolve_scratch ctrl in
        let inc = Online.Controller.resolve ctrl in
        if not (outcome_equal inc scratch) then ok := false
      done;
      !ok)

(* The same differential on inline-sized DAGs whose trees carry at least
   20 duplicated nodes, so every resolve replays a long pin sequence. *)
let test_incremental_many_duplicates () =
  List.iter
    (fun seed ->
      let n = 80 + (20 * (seed mod 3)) in
      let g, tbl, deadline = random_instance seed n (n / 3) in
      let _, tree = Assign.Dfg_assign.choose_tree g in
      let dups = List.length (Dfg.Expand.duplicated_nodes tree) in
      if dups < 20 then
        Alcotest.failf "seed %d: only %d duplicated nodes" seed dups;
      let ctrl = Online.Controller.create g tbl ~deadline in
      let rng = Workloads.Prng.create (seed lxor 0xd1ff) in
      for round = 1 to 4 do
        Online.Controller.scale_node ctrl ~node:(Workloads.Prng.int rng n)
          ~pct:(Workloads.Prng.int_in rng 50 300);
        let scratch = Online.Controller.resolve_scratch ctrl in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d (%d dups) round %d" seed dups round)
          true
          (outcome_equal (Online.Controller.resolve ctrl) scratch)
      done)
    (List.init 6 Fun.id)

let () =
  Alcotest.run "dvfs"
    [
      ( "levels",
        [
          quick "scaling laws and guards" test_scaling_laws;
          quick "uniform ladders" test_uniform_ladders;
          quick "identity expansion" test_expand_identity;
          quick "expanded cells and mapping" test_expand_cells_and_mapping;
        ] );
      ( "pipeline",
        [
          quick "leveled solves save energy and audit clean"
            test_leveled_solve_saves_energy;
        ] );
      ( "reclaim",
        [
          quick "retrofit finds moves, oracles stay green"
            test_reclaim_retrofit;
          quick "missed deadline is a no-op" test_reclaim_noop_on_missed_deadline;
        ] );
      ( "online",
        [
          quick "controller basics" test_controller_basics;
          quick "leveled round trip" test_controller_leveled_round_trip;
          QCheck_alcotest.to_alcotest incremental_equals_scratch;
          quick "incremental re-solve == from-scratch, >= 20 duplicated nodes"
            test_incremental_many_duplicates;
        ] );
    ]
