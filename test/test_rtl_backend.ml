(* The RTL backend: netlist lowering invariants, the OCaml co-simulation
   differential against the functional model under both bindings (random
   DAGs with delay edges, plus all six paper benchmarks), SystemVerilog
   emission sanity and its byte-for-byte differential against the
   Printf emitters in Oracle.Sv, the digest summary against the texts,
   reuse of the per-domain emission buffer, identifier uniquification,
   and unsupported-op reporting through the facade. *)

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

(* --- emission against the Printf oracle ---------------------------------- *)

(* Names that need sanitising (and collide once sanitised), and ops the
   module must escape in its UNSUPPORTED comments: a quote, a backslash
   and non-ASCII bytes. *)
let awkward_names = [| "a.b"; "a_b"; "9x"; "sp ace"; ""; "a b"; "a_b_2" |]
let awkward_ops = [| "q\"uote"; "back\\slash"; "caf\xc3\xa9"; "\xff\x01" |]

let relabel rng g =
  let pick arr = arr.(Workloads.Prng.int rng (Array.length arr)) in
  let n = Dfg.Graph.num_nodes g in
  let names =
    Array.init n (fun v ->
        if Workloads.Prng.int rng 2 = 0 then pick awkward_names
        else Dfg.Graph.name g v)
  in
  let ops =
    Array.init n (fun v ->
        if Workloads.Prng.int rng 3 = 0 then pick awkward_ops
        else Dfg.Graph.op g v)
  in
  Dfg.Graph.of_edges ~names ~ops (Dfg.Graph.edges g)

let netlist ~width style g tbl s =
  (lower ~width style g tbl s).Rtl.Backend.netlist

(* Both bindings, widths 16 and 4, 1 and 4 testbench iterations: the
   module and the bench equal the oracle's bytes, through Sv directly and
   through the facade. *)
let emitters_match_oracle =
  of_seed (fun seed ->
      let rng, g, tbl, s = scheduled_instance seed in
      let g = relabel rng g in
      List.for_all
        (fun ((name, style), width) ->
          let nl = netlist ~width style g tbl s in
          let want = Oracle.Sv.emit_module nl in
          let fail what =
            QCheck.Test.fail_reportf "%s, width %d: %s differs from the oracle"
              name width what
          in
          if Rtl.Sv.emit_module nl <> want then fail "emit_module";
          List.iter
            (fun iterations ->
              let want_tb =
                Oracle.Sv.emit_testbench nl g ~iterations ~input:stimulus
              in
              if
                Rtl.Sv.testbench Rtl.Sv.text nl g ~iterations ~input:stimulus
                <> want_tb
              then fail (Printf.sprintf "emit_testbench (%d)" iterations);
              let resp =
                lower ~width ~testbench_iterations:iterations style g tbl s
              in
              if resp.Rtl.Backend.module_text <> want then fail "module_text";
              if resp.Rtl.Backend.testbench_text <> Some want_tb then
                fail "testbench_text")
            [ 1; 4 ];
          true)
        (List.concat_map (fun st -> [ (st, 16); (st, 4) ]) styles))

(* Integers of every sign and length, min_int and max_int included: at
   width 63 the mask keeps all bits, so the stimulus reaches the bench
   unchanged. *)
let test_integer_digits () =
  let g = graph ~ops:[| "in"; "in"; "add" |] 3 [ (0, 2); (1, 2) ] in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 1; 1 ], [ 1; 1 ]))) in
  let s = { Sched.Schedule.start = [| 0; 0; 1 |]; assignment = [| 0; 0; 0 |] } in
  let values =
    [| 0; 7; -1; 9; 10; -10; 99; 100; 12345; -98765; max_int; min_int;
       max_int / 10; min_int / 10 |]
  in
  let input v i = values.(((2 * i) + v) mod Array.length values) in
  List.iter
    (fun width ->
      let nl = netlist ~width Rtl.Backend.Structural g tbl s in
      Alcotest.(check string)
        (Printf.sprintf "bench at width %d" width)
        (Oracle.Sv.emit_testbench nl g ~iterations:7 ~input)
        (Rtl.Sv.testbench Rtl.Sv.text nl g ~iterations:7 ~input))
    [ 62; 63 ]

(* --- the digest summary -------------------------------------------------- *)

let summary_digests_texts =
  of_seed (fun seed ->
      let rng, g, tbl, s = scheduled_instance seed in
      let g = relabel rng g in
      List.for_all
        (fun ((_, style), testbench_iterations) ->
          let req =
            Rtl.Backend.request ~style ~testbench_iterations ~stimulus g tbl s
          in
          let full = Rtl.Backend.lower req in
          let sum = Rtl.Backend.summarize req in
          sum.Rtl.Backend.module_digest
          = Digest.string full.Rtl.Backend.module_text
          && sum.Rtl.Backend.testbench_digest
             = Option.map Digest.string full.Rtl.Backend.testbench_text
          && sum.Rtl.Backend.period = full.Rtl.Backend.period
          && sum.Rtl.Backend.stats = full.Rtl.Backend.stats
          && sum.Rtl.Backend.unsupported = full.Rtl.Backend.unsupported)
        (List.concat_map (fun st -> [ (st, 0); (st, 4) ]) styles))

(* --- the per-domain buffer ---------------------------------------------- *)

(* Every catalogue filter solved at its default deadline and lowered
   structurally, largest module first. *)
let catalogue_requests =
  lazy
    (List.filter_map
       (fun name ->
         let g, tbl = Option.get (Workloads.Catalogue.lookup name ~seed:1) in
         let deadline = Core.Synthesis.default_deadline g tbl in
         match
           (Core.Synthesis.solve
              (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat
                 ~deadline g tbl))
             .Core.Synthesis.result
         with
         | None -> None
         | Some r ->
             Some (Rtl.Backend.request g tbl r.Core.Synthesis.schedule))
       (Workloads.Catalogue.names ())
    |> List.map (fun req -> (req, (Rtl.Backend.lower req).Rtl.Backend.netlist))
    |> List.sort (fun (_, a) (_, b) ->
           compare
             (String.length (Oracle.Sv.emit_module b))
             (String.length (Oracle.Sv.emit_module a))))

(* One [comp] node over 18 operands: its nested ternaries double per
   operand, so this module is over a megabyte and the buffer grows past
   the size it keeps. *)
let huge_netlist () =
  let k = 18 in
  let g =
    graph
      ~ops:(Array.init (k + 1) (fun v -> if v = k then "comp" else "in"))
      (k + 1)
      (List.init k (fun u -> (u, k)))
  in
  let tbl = table lib2 (List.init (k + 1) (fun _ -> ([ 1; 1 ], [ 1; 1 ]))) in
  let s =
    {
      Sched.Schedule.start = Array.init (k + 1) (fun v -> if v = k then 1 else 0);
      assignment = Array.make (k + 1) 0;
    }
  in
  Rtl.Netlist_ir.build g tbl s

(* A short emission after a long one on the same domain must not keep
   the long one's tail, whether copied out or digested in place. *)
let test_buffer_reuse () =
  let reqs = Lazy.force catalogue_requests in
  let _, largest = List.hd reqs and _, smallest = List.hd (List.rev reqs) in
  let huge = huge_netlist () in
  let huge_text = Oracle.Sv.emit_module huge in
  Alcotest.(check bool) "huge module is over 1 MiB" true
    (String.length huge_text > 1 lsl 20);
  let small_text = Oracle.Sv.emit_module smallest in
  List.iter
    (fun (label, big) ->
      ignore (Rtl.Sv.emit_module big);
      Alcotest.(check string)
        ("smallest after " ^ label) small_text (Rtl.Sv.emit_module smallest);
      ignore (Rtl.Sv.module_ Rtl.Sv.digest (Rtl.Netlist_ir.stats big) big);
      Alcotest.(check string)
        ("smallest digest after " ^ label)
        (Digest.to_hex (Digest.string small_text))
        (Digest.to_hex
           (Rtl.Sv.module_ Rtl.Sv.digest
              (Rtl.Netlist_ir.stats smallest)
              smallest)))
    [ ("largest catalogue module", largest); ("a 1 MiB module", huge) ];
  Alcotest.(check bool) "huge module itself" true
    (Rtl.Sv.emit_module huge = huge_text)

(* The same batch summarized on a 2-domain pool and sequentially: each
   domain has its own buffer, so the digests agree request by request. *)
let test_parallel_digests () =
  let reqs =
    Array.of_list (List.map fst (Lazy.force catalogue_requests))
  in
  let batch = Array.concat (List.init 8 (fun _ -> reqs)) in
  let digests resp =
    (resp.Rtl.Backend.module_digest, resp.Rtl.Backend.testbench_digest)
  in
  let seq = Array.map (fun r -> digests (Rtl.Backend.summarize r)) batch in
  let par =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        Par.Pool.map_array pool
          (fun r -> digests (Rtl.Backend.summarize r))
          batch)
  in
  Array.iteri
    (fun i (m, tb) ->
      let m', tb' = par.(i) in
      Alcotest.(check string)
        (Printf.sprintf "module digest %d" i)
        (Digest.to_hex m) (Digest.to_hex m');
      Alcotest.(check (option string))
        (Printf.sprintf "testbench digest %d" i)
        (Option.map Digest.to_hex tb)
        (Option.map Digest.to_hex tb'))
    seq

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
      ( "emission",
        [
          prop "Sv == Printf oracle, both bindings, widths 16 and 4" 100
            emitters_match_oracle;
          quick "integer digits match %d" test_integer_digits;
          prop "summary digests == digests of lower's texts" 100
            summary_digests_texts;
          quick "buffer reuse: short after long" test_buffer_reuse;
          quick "2-domain digests == sequential" test_parallel_digests;
        ] );
      ( "identifiers",
        [
          quick "unique suffixes collisions" test_ident_unique;
          quick "emitters use collision-free names" test_emitters_use_unique_names;
        ] );
      ( "unsupported",
        [ quick "structured reporting through the facade" test_unsupported_op_reporting ] );
    ]
