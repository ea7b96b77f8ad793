(* The RTL backend: netlist lowering invariants, the OCaml co-simulation
   differential against the functional model under both bindings (random
   DAGs with delay edges, plus all six paper benchmarks), SystemVerilog
   emission sanity, identifier uniquification, and unsupported-op
   reporting through the facade. *)

open Helpers

let of_seed f =
  (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int), f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let count_occurrences haystack needle =
  let nl = String.length needle in
  let rec go i acc =
    if i + nl > String.length haystack then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Random scheduled instance, then graft random delays onto some edges.
   Scheduling happens on the zero-delay graph; adding delay only relaxes
   a dependence, so the schedule stays valid for the delayed graph — and
   the delays exercise the history-register paths of the lowering. *)
let scheduled_instance ?(max_nodes = 10) seed =
  let rng = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int rng max_nodes in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
  let a = Assign.Assignment.all_fastest tbl in
  let deadline =
    Assign.Assignment.makespan g tbl a + Workloads.Prng.int rng 5
  in
  match Sched.Min_resource.run g tbl a ~deadline with
  | None -> assert false (* all-fastest at its own makespan always fits *)
  | Some { Sched.Min_resource.schedule; _ } ->
      let g =
        Dfg.Graph.of_edges ~names:(Dfg.Graph.names g)
          ~ops:(Array.init n (Dfg.Graph.op g))
          (List.map
             (fun (e : Dfg.Graph.edge) ->
               if Workloads.Prng.int rng 4 = 0 then
                 { e with Dfg.Graph.delay = 1 + Workloads.Prng.int rng 2 }
               else e)
             (Dfg.Graph.edges g))
      in
      (rng, g, tbl, schedule)

let stimulus v i = (((v + 2) * 5) + (i * 3)) land 255

(* --- co-simulation ------------------------------------------------------ *)

(* Both styles go through the one lowering; the style only picks the
   binding, so every co-simulation check runs over both. *)
let styles =
  [ ("structural", Rtl.Backend.Structural); ("unshared", Rtl.Backend.Unshared) ]

let lower ?(width = 16) ?(testbench_iterations = 0) style g tbl s =
  Rtl.Backend.lower
    (Rtl.Backend.request ~style ~width ~testbench_iterations ~stimulus g tbl s)

let differential_all_styles ?width ~iterations g tbl s =
  List.fold_left
    (fun acc (name, style) ->
      Result.bind acc (fun () ->
          let nl = (lower ?width style g tbl s).Rtl.Backend.netlist in
          Result.map_error (( ^ ) (name ^ ": "))
            (Rtl.Sim.differential nl g ~iterations ~input:stimulus)))
    (Ok ()) styles

let sim_matches_interp =
  of_seed (fun seed ->
      let _, g, tbl, s = scheduled_instance seed in
      match differential_all_styles ~width:16 ~iterations:6 g tbl s with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* narrow width: masking happens only at the sampled outputs, so the
   differential must hold at any width, including one where intermediate
   values overflow constantly *)
let sim_matches_interp_narrow =
  of_seed (fun seed ->
      let _, g, tbl, s = scheduled_instance seed in
      match differential_all_styles ~width:4 ~iterations:5 g tbl s with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let test_benchmark_differentials () =
  List.iter
    (fun (name, g) ->
      let rng = Workloads.Prng.create 11 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let deadline = Core.Synthesis.min_deadline g tbl + 3 in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g tbl))
          .Core.Synthesis.result
      with
      | None -> Alcotest.failf "%s: synthesis failed" name
      | Some r -> (
          match
            differential_all_styles ~iterations:4 g tbl
              r.Core.Synthesis.schedule
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name e))
    (Workloads.Filters.all ())

(* --- lowering invariants ------------------------------------------------ *)

let fu_and_register_sharing =
  of_seed (fun seed ->
      let _, g, tbl, s = scheduled_instance seed in
      let nl = Rtl.Netlist_ir.build g tbl s in
      let st = Rtl.Netlist_ir.stats nl in
      let b = Sched.Binding.bind tbl s in
      st.Rtl.Netlist_ir.fu_instances = Sched.Config.total b.Sched.Binding.config
      && st.Rtl.Netlist_ir.registers = Sched.Registers.max_live g tbl s
      && nl.Rtl.Netlist_ir.reg_count = st.Rtl.Netlist_ir.registers)

(* every activation's latch step is unique within its instance, and no two
   activations of one instance overlap in time — resource sharing is real *)
let activations_disjoint =
  of_seed (fun seed ->
      let _, g, tbl, s = scheduled_instance seed in
      ignore g;
      let nl = Rtl.Netlist_ir.build g tbl s in
      Array.for_all
        (fun fu ->
          let acts = Array.to_list fu.Rtl.Netlist_ir.activations in
          let latches = List.map (fun a -> a.Rtl.Netlist_ir.latch_step) acts in
          List.length latches = List.length (List.sort_uniq compare latches)
          && List.for_all
               (fun (a : Rtl.Netlist_ir.activation) ->
                 List.for_all
                   (fun (a' : Rtl.Netlist_ir.activation) ->
                     a == a' || a.finish <= a'.start || a'.finish <= a.start)
                   acts)
               acts)
        nl.Rtl.Netlist_ir.fus)

(* the other end of the trade-off: one instance per operation, each
   firing once per period, never fewer instances than the shared machine *)
let unshared_instances =
  of_seed (fun seed ->
      let _, g, tbl, s = scheduled_instance seed in
      let unshared = lower Rtl.Backend.Unshared g tbl s in
      let shared = lower Rtl.Backend.Structural g tbl s in
      Array.for_all
        (fun fu -> Array.length fu.Rtl.Netlist_ir.activations <= 1)
        unshared.Rtl.Backend.netlist.Rtl.Netlist_ir.fus
      && unshared.Rtl.Backend.stats.Rtl.Netlist_ir.fu_instances
         >= shared.Rtl.Backend.stats.Rtl.Netlist_ir.fu_instances)

let structural_emission =
  of_seed (fun seed ->
      let _, g, tbl, s = scheduled_instance seed in
      let resp =
        lower ~testbench_iterations:3 Rtl.Backend.Structural g tbl s
      in
      let sv = resp.Rtl.Backend.module_text in
      let st = resp.Rtl.Backend.stats in
      (* one submodule definition per FU instance, plus the top module *)
      count_occurrences sv "\nmodule " = st.Rtl.Netlist_ir.fu_instances + 1
      && contains sv "always_ff @(posedge clk)"
      && contains sv "endmodule"
      && (match resp.Rtl.Backend.testbench_text with
         | Some tb -> contains tb "TESTBENCH PASSED" && contains tb "$finish"
         | None -> false)
      && Rtl.Netlist_ir.stats resp.Rtl.Backend.netlist = st)

(* --- identifiers -------------------------------------------------------- *)

let test_ident_unique () =
  Alcotest.(check (array string))
    "collisions get fresh suffixes"
    [| "a_b"; "a_b_2"; "a_b_3" |]
    (Rtl.Ident.unique [| "a.b"; "a_b"; "a b" |]);
  Alcotest.(check (array string))
    "suffix already taken is skipped"
    [| "a_b_2"; "a_b"; "a_b_3" |]
    (Rtl.Ident.unique [| "a_b_2"; "a.b"; "a_b" |]);
  Alcotest.(check string) "leading digit prefixed" "n_9x" (Rtl.Ident.sanitize "9x");
  Alcotest.(check (array string))
    "distinct names untouched"
    [| "x"; "y" |]
    (Rtl.Ident.unique [| "x"; "y" |])

let test_emitters_use_unique_names () =
  let names = [| "a.b"; "a_b" |] in
  let g =
    Dfg.Graph.of_edges ~names ~ops:[| "add"; "add" |]
      [ { Dfg.Graph.src = 0; dst = 1; delay = 0; size = 0 } ]
  in
  let tbl = table lib2 [ ([ 1; 1 ], [ 1; 1 ]); ([ 1; 1 ], [ 1; 1 ]) ] in
  let s = { Sched.Schedule.start = [| 0; 1 |]; assignment = [| 0; 0 |] } in
  let check_style style =
    let resp =
      Rtl.Backend.lower (Rtl.Backend.request ~style ~testbench_iterations:0 g tbl s)
    in
    let v = resp.Rtl.Backend.module_text in
    Alcotest.(check bool) "first name keeps base" true (contains v "a_b");
    Alcotest.(check bool) "second gets suffix" true (contains v "a_b_2")
  in
  check_style Rtl.Backend.Unshared;
  check_style Rtl.Backend.Structural

(* --- unsupported ops ---------------------------------------------------- *)

let test_unsupported_op_reporting () =
  let g =
    graph ~ops:[| "add"; "sqrt"; "add" |] 3 [ (0, 1); (1, 2) ]
  in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 1; 1 ], [ 1; 1 ]))) in
  let s = { Sched.Schedule.start = [| 0; 1; 2 |]; assignment = [| 0; 0; 0 |] } in
  let resp = Rtl.Backend.lower (Rtl.Backend.request ~testbench_iterations:0 g tbl s) in
  (match resp.Rtl.Backend.unsupported with
  | [ { Rtl.Backend.node; op } ] ->
      Alcotest.(check int) "node" 1 node;
      Alcotest.(check string) "op" "sqrt" op
  | l -> Alcotest.failf "expected one unsupported op, got %d" (List.length l));
  Alcotest.(check int) "stats counts it" 1
    resp.Rtl.Backend.stats.Rtl.Netlist_ir.unsupported_ops;
  Alcotest.(check bool) "SV flags the placeholder" true
    (contains resp.Rtl.Backend.module_text "UNSUPPORTED");
  (* input nodes are never compute: an exotic op on a source is fine *)
  let g2 = graph ~ops:[| "sample"; "add" |] 2 [ (0, 1) ] in
  let tbl2 = table lib2 [ ([ 1; 1 ], [ 1; 1 ]); ([ 1; 1 ], [ 1; 1 ]) ] in
  let s2 = { Sched.Schedule.start = [| 0; 1 |]; assignment = [| 0; 0 |] } in
  let resp2 =
    Rtl.Backend.lower (Rtl.Backend.request ~testbench_iterations:0 g2 tbl2 s2)
  in
  Alcotest.(check bool) "input op not reported" true
    (resp2.Rtl.Backend.unsupported = []);
  (* and the placeholder still co-simulates: Interp uses the same xor fold *)
  let nl = Rtl.Netlist_ir.build g tbl s in
  match Rtl.Sim.differential nl g ~iterations:4 ~input:stimulus with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "rtl_backend"
    [
      ( "cosim",
        [
          prop "sim == interp on random delayed DAGs" 150 sim_matches_interp;
          prop "sim == interp at width 4" 100 sim_matches_interp_narrow;
          quick "sim == interp on the six paper benchmarks"
            test_benchmark_differentials;
        ] );
      ( "lowering",
        [
          prop "FU instances = binding, registers = max_live" 150
            fu_and_register_sharing;
          prop "per-instance activations disjoint" 150 activations_disjoint;
          prop "structural SV emission well-formed" 60 structural_emission;
          prop "unshared: one activation per instance" 150
            unshared_instances;
        ] );
      ( "identifiers",
        [
          quick "unique suffixes collisions" test_ident_unique;
          quick "emitters use collision-free names" test_emitters_use_unique_names;
        ] );
      ( "unsupported",
        [ quick "structured reporting through the facade" test_unsupported_op_reporting ] );
    ]
