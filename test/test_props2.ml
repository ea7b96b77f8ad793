(* Second property suite: invariants of the extension subsystems (binding,
   resource-constrained scheduling, overlapped schedules, registers,
   netlists, frontiers, exact schedulability). *)

let of_seed f =
  (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int), f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let dag_instance ?(max_nodes = 10) seed =
  let rng = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int rng max_nodes in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:Helpers.lib3 ~num_nodes:n in
  (rng, g, tbl)

let scheduled_instance seed =
  let rng, g, tbl = dag_instance seed in
  let a = Assign.Assignment.all_fastest tbl in
  let deadline =
    Assign.Assignment.makespan g tbl a + Workloads.Prng.int rng 6
  in
  match Sched.Min_resource.run g tbl a ~deadline with
  | Some { Sched.Min_resource.schedule; config; _ } ->
      (g, tbl, schedule, config, deadline)
  | None -> assert false (* all-fastest at its own makespan always works *)

let binding_valid =
  of_seed (fun seed ->
      let g, tbl, s, config, _ = scheduled_instance seed in
      ignore g;
      let b = Sched.Binding.bind tbl s in
      Sched.Binding.is_valid tbl s b
      && Sched.Config.dominates config b.Sched.Binding.config
      && b.Sched.Binding.config = Sched.Schedule.peak_usage tbl s)

let resource_constrained_valid =
  of_seed (fun seed ->
      let rng, g, tbl = dag_instance seed in
      let n = Dfg.Graph.num_nodes g in
      let a = Array.init n (fun _ -> Workloads.Prng.int rng 3) in
      let config = Array.init 3 (fun _ -> 1 + Workloads.Prng.int rng 2) in
      match Sched.Resource_constrained.run g tbl a ~config with
      | None -> false
      | Some s ->
          Sched.Schedule.respects_precedence g tbl s
          && Sched.Schedule.fits tbl s ~config)

let min_period_tight =
  of_seed (fun seed ->
      let g, tbl, s, _, _ = scheduled_instance seed in
      let p = Sched.Cyclic_schedule.min_period g tbl s in
      let legal_at_p = Sched.Cyclic_schedule.is_legal_period g tbl s ~period:p in
      (* one step below must break a dependence or the resource bound; the
         dependence part is what is_legal_period checks *)
      let sim =
        Sched.Cyclic_schedule.simulate g tbl s ~period:p ~iterations:4
      in
      legal_at_p && sim.Sched.Cyclic_schedule.ok)

(* min_period agrees with the simulation-based legality oracle on both
   sides: legal at min_period, illegal one step below (when > 1).
   [simulate] only re-checks dependences, so the oracle's other half is
   the resource bound — one iteration's work per period on the schedule's
   peak configuration. Random delays are grafted onto some edges first
   (adding delay only relaxes a dependence, so the schedule stays valid)
   to exercise the dependence bound, not just the resource one. *)
let min_period_is_simulation_minimal =
  of_seed (fun seed ->
      let rng, g, tbl = dag_instance seed in
      let a = Assign.Assignment.all_fastest tbl in
      let deadline =
        Assign.Assignment.makespan g tbl a + Workloads.Prng.int rng 4
      in
      match Sched.Min_resource.run g tbl a ~deadline with
      | None -> false
      | Some { Sched.Min_resource.schedule = s; _ } ->
          let g =
            Dfg.Graph.of_edges ~names:(Dfg.Graph.names g)
              ~ops:(Array.init (Dfg.Graph.num_nodes g) (Dfg.Graph.op g))
              (List.map
                 (fun (e : Dfg.Graph.edge) ->
                   if Workloads.Prng.int rng 3 = 0 then
                     { e with Dfg.Graph.delay = 1 + Workloads.Prng.int rng 2 }
                   else e)
                 (Dfg.Graph.edges g))
          in
          let config = Sched.Schedule.peak_usage tbl s in
          let work = Array.make (Fulib.Table.num_types tbl) 0 in
          Array.iteri
            (fun v t ->
              work.(t) <- work.(t) + Fulib.Table.time tbl ~node:v ~ftype:t)
            s.Sched.Schedule.assignment;
          let legal period =
            period >= 1
            && (Sched.Cyclic_schedule.simulate g tbl s ~period ~iterations:8)
                 .Sched.Cyclic_schedule.ok
            && Array.for_all2
                 (fun w c -> w = 0 || w <= period * c)
                 work config
          in
          let p = Sched.Cyclic_schedule.min_period g tbl s in
          legal p && (p = 1 || not (legal (p - 1))))

let simulation_is_legality_oracle =
  of_seed (fun seed ->
      let rng, g, tbl = dag_instance ~max_nodes:8 seed in
      let a = Assign.Assignment.all_fastest tbl in
      let deadline = Assign.Assignment.makespan g tbl a in
      match Sched.Min_resource.run g tbl a ~deadline with
      | None -> false
      | Some { Sched.Min_resource.schedule; _ } ->
          let period = 1 + Workloads.Prng.int rng (deadline + 2) in
          let claimed =
            Sched.Cyclic_schedule.is_legal_period g tbl schedule ~period
          in
          let sim =
            Sched.Cyclic_schedule.simulate g tbl schedule ~period ~iterations:5
          in
          claimed = sim.Sched.Cyclic_schedule.ok)

let registers_left_edge_optimal =
  of_seed (fun seed ->
      let g, tbl, s, _, _ = scheduled_instance seed in
      let allocation, count = Sched.Registers.allocate g tbl s in
      count = Sched.Registers.max_live g tbl s
      && List.for_all
           (fun (lt, r) ->
             List.for_all
               (fun (lt', r') ->
                 lt == lt' || r <> r'
                 || lt.Sched.Registers.death <= lt'.Sched.Registers.birth
                 || lt'.Sched.Registers.death <= lt.Sched.Registers.birth)
               allocation)
           allocation)

let netlist_roundtrip =
  of_seed (fun seed ->
      let _, g, tbl = dag_instance seed in
      let g', tbl' = Netlist.of_string (Netlist.to_string ~table:tbl g) in
      let edges gr =
        List.sort compare
          (List.map
             (fun { Dfg.Graph.src; dst; delay; _ } ->
               (Dfg.Graph.name gr src, Dfg.Graph.name gr dst, delay))
             (Dfg.Graph.edges gr))
      in
      edges g = edges g'
      &&
      match tbl' with
      | None -> false
      | Some tbl' ->
          let same = ref (Fulib.Table.num_nodes tbl = Fulib.Table.num_nodes tbl') in
          for v = 0 to Fulib.Table.num_nodes tbl - 1 do
            for k = 0 to Fulib.Table.num_types tbl - 1 do
              if
                Fulib.Table.time tbl ~node:v ~ftype:k
                <> Fulib.Table.time tbl' ~node:v ~ftype:k
                || Fulib.Table.cost tbl ~node:v ~ftype:k
                   <> Fulib.Table.cost tbl' ~node:v ~ftype:k
              then same := false
            done
          done;
          !same)

let frontier_staircase =
  of_seed (fun seed ->
      let _, g, tbl = dag_instance ~max_nodes:7 seed in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let points = Core.Frontier.trace g tbl ~max_deadline:(tmin + 8) in
      let rec ok = function
        | a :: (b :: _ as t) ->
            a.Core.Frontier.deadline < b.Core.Frontier.deadline
            && a.Core.Frontier.cost > b.Core.Frontier.cost
            && ok t
        | _ -> true
      in
      points <> [] && ok points)

let exact_schedule_consistent_with_list =
  of_seed (fun seed ->
      let g, tbl, s, config, deadline = scheduled_instance seed in
      ignore s;
      (* whatever list scheduling achieved, exact search must confirm *)
      let a = Assign.Assignment.all_fastest tbl in
      Sched.Exact_schedule.feasible ~budget:500_000 g tbl a ~config ~deadline)

let dual_binary_search_consistent =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 7 in
      let g = Workloads.Random_dfg.random_tree rng ~n ~max_children:3 in
      let tbl =
        Workloads.Tables.random_arbitrary rng ~library:Helpers.lib2 ~num_nodes:n
          ~max_time:4 ~max_cost:8
      in
      let budget = Workloads.Prng.int rng 40 in
      match Assign.Dual.for_tree g tbl ~budget with
      | None ->
          (* no assignment fits the budget at any deadline: the cheapest
             assignment must exceed it *)
          Assign.Assignment.total_cost tbl (Assign.Assignment.all_cheapest tbl)
          > budget
      | Some (makespan, a) ->
          Assign.Assignment.total_cost tbl a <= budget
          && Assign.Assignment.makespan g tbl a <= makespan)

let renderers_total =
  of_seed (fun seed ->
      let g, tbl, s, _, _ = scheduled_instance seed in
      let ascii = Sched.Gantt.render ~graph:g ~table:tbl s in
      let svg = Rtl.Svg_gantt.render ~graph:g ~table:tbl s in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      String.length ascii > 0
      && contains svg "<svg" && contains svg "</svg>"
      (* every node name appears somewhere in the SVG labels *)
      && List.for_all
           (fun v -> contains svg (Dfg.Graph.name g v))
           (List.init (Dfg.Graph.num_nodes g) (fun i -> i)))

let testbench_embeds_interp_values =
  of_seed (fun seed ->
      let g, tbl, s, _, _ = scheduled_instance seed in
      let input v i = ((v * 5) + i) land 15 in
      let resp =
        Rtl.Backend.lower
          (Rtl.Backend.request ~style:Rtl.Backend.Unshared
             ~testbench_iterations:3 ~stimulus:input g tbl s)
      in
      let tb = Option.get resp.Rtl.Backend.testbench_text in
      let expected = Dfg.Interp.run g ~iterations:3 ~input in
      let contains hay needle =
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      (* every output node's final-iteration expectation is embedded *)
      List.for_all
        (fun v ->
          Dfg.Graph.dag_succs g v <> []
          || contains tb (string_of_int (expected.(v).(2) land 0xFFFF)))
        (List.init (Dfg.Graph.num_nodes g) Fun.id))

let () =
  Alcotest.run "properties2"
    [
      ( "scheduling extensions",
        [
          prop "binding always valid and tight" 120 binding_valid;
          prop "resource-constrained schedules valid" 120 resource_constrained_valid;
          prop "min period legal and simulatable" 120 min_period_tight;
          prop "min period minimal against the simulation oracle" 120
            min_period_is_simulation_minimal;
          prop "simulation equals legality" 120 simulation_is_legality_oracle;
          prop "left-edge register allocation optimal" 120 registers_left_edge_optimal;
          prop "exact schedulability confirms list configs" 80 exact_schedule_consistent_with_list;
        ] );
      ( "io / frontier / dual",
        [
          prop "netlist round-trip" 120 netlist_roundtrip;
          prop "frontier is a staircase" 60 frontier_staircase;
          prop "dual solutions within budget" 120 dual_binary_search_consistent;
          prop "gantt/svg renderers total" 80 renderers_total;
          prop "testbench embeds golden values" 80 testbench_embeds_interp_values;
        ] );
    ]
