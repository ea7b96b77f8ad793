(* Tests for the RTL back end through the Rtl.Backend facade (both
   bindings, the VCD trace and the testbench) and the end-to-end
   compilation flow. The co-simulation differential lives in
   test_rtl_backend.ml. *)

open Helpers

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

let synth g tbl =
  let deadline = Assign.Assignment.min_makespan g tbl + 3 in
  match
    (Core.Synthesis.solve
       (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline g
          tbl))
      .Core.Synthesis.result
  with
  | Some r -> r
  | None -> Alcotest.fail "synthesis failed"

let lower ?(style = Rtl.Backend.Unshared) ?(testbench_iterations = 0) ?stimulus
    ?vcd_iterations g tbl s =
  Rtl.Backend.lower
    (Rtl.Backend.request ~style ~module_name:"hetsched_datapath"
       ~testbench_iterations ?stimulus ?vcd_iterations g tbl s)

(* --- Facade response structure ----------------------------------------- *)

let test_backend_response_shape () =
  let g =
    graph ~ops:[| "add"; "mul"; "sub"; "add" |] 4
      [ (0, 1); (0, 2); (1, 3); (2, 3) ]
  in
  let tbl =
    table lib2
      [ ([ 1; 2 ], [ 6; 2 ]); ([ 2; 3 ], [ 7; 3 ]); ([ 2; 4 ], [ 8; 2 ]); ([ 1; 2 ], [ 5; 1 ]) ]
  in
  let r = synth g tbl in
  let resp = lower g tbl r.Core.Synthesis.schedule in
  Alcotest.(check int) "period = schedule length"
    (Sched.Schedule.length tbl r.Core.Synthesis.schedule)
    resp.Rtl.Backend.period;
  Alcotest.(check bool) "stats are the netlist's" true
    (Rtl.Netlist_ir.stats resp.Rtl.Backend.netlist = resp.Rtl.Backend.stats);
  Alcotest.(check int) "unshared: one instance per node" 4
    (Sched.Config.total resp.Rtl.Backend.config);
  Alcotest.(check bool) "no testbench when iterations = 0" true
    (resp.Rtl.Backend.testbench_text = None);
  Alcotest.(check bool) "no vcd by default" true
    (resp.Rtl.Backend.vcd_text = None);
  Alcotest.(check bool) "supported ops report clean" true
    (resp.Rtl.Backend.unsupported = [])

let test_interconnect_zero_without_sharing () =
  (* 2 independent nodes on 2 instances: no port sees two sources *)
  let g = graph 2 [] in
  let tbl = table lib2 [ ([ 1; 1 ], [ 1; 1 ]); ([ 1; 1 ], [ 1; 1 ]) ] in
  let s = { Sched.Schedule.start = [| 0; 0 |]; assignment = [| 0; 0 |] } in
  let resp = lower g tbl s in
  Alcotest.(check int) "no muxes" 0
    resp.Rtl.Backend.stats.Rtl.Netlist_ir.mux_count

let test_interconnect_counts_sharing () =
  (* two chains b<-a, c<-d; the left-edge binding serialises b (1) and
     d (3) on one instance, whose port then sees two sources: the input
     bus of a and the register holding c. The unshared binding gives them
     separate instances; the register file is the same in both, so
     sharing costs exactly one 2-input mux. *)
  let g = graph 4 [ (0, 1); (2, 3) ] in
  let tbl = table lib2 (List.init 4 (fun _ -> ([ 1; 1 ], [ 1; 1 ]))) in
  let s = { Sched.Schedule.start = [| 0; 1; 0; 2 |]; assignment = [| 0; 0; 0; 0 |] } in
  let b = Sched.Binding.bind tbl s in
  Alcotest.(check bool) "left-edge shares b and d" true
    (b.Sched.Binding.instance.(1) = b.Sched.Binding.instance.(3));
  let shared = (lower ~style:Rtl.Backend.Structural g tbl s).Rtl.Backend.stats in
  let unshared = (lower g tbl s).Rtl.Backend.stats in
  Alcotest.(check int) "one more mux" 1
    (shared.Rtl.Netlist_ir.mux_count - unshared.Rtl.Netlist_ir.mux_count);
  Alcotest.(check int) "two more inputs" 2
    (shared.Rtl.Netlist_ir.mux_inputs - unshared.Rtl.Netlist_ir.mux_inputs)

(* --- Verilog ----------------------------------------------------------- *)

let test_verilog_sanitizes_names () =
  let names = [| "a*x"; "b x" |] in
  let g =
    Dfg.Graph.of_edges ~names [ { Dfg.Graph.src = 0; dst = 1; delay = 0; size = 0 } ]
  in
  let tbl = table lib2 [ ([ 1; 1 ], [ 1; 1 ]); ([ 1; 1 ], [ 1; 1 ]) ] in
  let s = { Sched.Schedule.start = [| 0; 1 |]; assignment = [| 0; 0 |] } in
  let v = (lower g tbl s).Rtl.Backend.module_text in
  Alcotest.(check bool) "a*x sanitised" true (contains v "in_a_x");
  Alcotest.(check bool) "b x sanitised" true (contains v "out_b_x");
  Alcotest.(check bool) "no raw star" false (contains v "a*x")

(* --- Flow --------------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "hetsflow" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_flow_compile () =
  with_temp_dir (fun dir ->
      let g = Workloads.Filters.diffeq () in
      let rng = Workloads.Prng.create 5 in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      match Flow.compile g tbl ~outdir:dir with
      | None -> Alcotest.fail "compile failed"
      | Some s ->
          Alcotest.(check int) "ten files" 10 (List.length s.Flow.files);
          List.iter
            (fun f ->
              Alcotest.(check bool) (f ^ " exists") true (Sys.file_exists f))
            s.Flow.files;
          let read f = In_channel.with_open_text f In_channel.input_all in
          let report = read (Filename.concat dir "report.txt") in
          Alcotest.(check bool) "report has interconnect" true
            (contains report "interconnect:");
          Alcotest.(check bool) "report has structural stats" true
            (contains report "fu instances:");
          let sv = read (Filename.concat dir "datapath.sv") in
          Alcotest.(check bool) "structural SV emitted" true
            (contains sv "always_ff @(posedge clk)");
          let sv_tb = read (Filename.concat dir "datapath_tb.sv") in
          Alcotest.(check bool) "structural testbench emitted" true
            (contains sv_tb "TESTBENCH PASSED");
          let unshared = read (Filename.concat dir "datapath_unshared.sv") in
          Alcotest.(check bool) "unshared module has its own name" true
            (contains unshared "module hetsched_datapath_unshared #");
          let unshared_tb =
            read (Filename.concat dir "datapath_unshared_tb.sv")
          in
          Alcotest.(check bool) "unshared testbench drives it" true
            (contains unshared_tb "hetsched_datapath_unshared #(.W(16)) dut");
          Alcotest.(check bool) "report has unshared stats" true
            (contains report "unshared:");
          let vcd = read (Filename.concat dir "trace.vcd") in
          Alcotest.(check bool) "vcd definitions" true
            (contains vcd "$enddefinitions");
          let svg = read (Filename.concat dir "schedule.svg") in
          Alcotest.(check bool) "svg root element" true (contains svg "<svg ");
          Alcotest.(check bool) "svg closes" true (contains svg "</svg>");
          let csv = read (Filename.concat dir "schedule.csv") in
          Alcotest.(check bool) "schedule csv header" true
            (contains csv "node,op,fu_type");
          Alcotest.(check bool) "cost positive" true (s.Flow.cost > 0))

let test_flow_compile_file () =
  with_temp_dir (fun dir ->
      let src = "fu-types F S\nnode a mul 2/9 4/2\nnode b add 1/5 3/1\nedge a b\n" in
      let path = Filename.temp_file "flowsrc" ".dfg" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc -> output_string oc src);
          match Flow.compile_file ~outdir:dir path with
          | None -> Alcotest.fail "compile_file failed"
          | Some s ->
              Alcotest.(check bool) "makespan within deadline" true
                (s.Flow.makespan > 0)))

let test_vcd_structure () =
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 2) ] in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 2; 2 ], [ 1; 1 ]))) in
  let s = { Sched.Schedule.start = [| 0; 2; 4 |]; assignment = [| 0; 0; 0 |] } in
  let resp = lower ~style:Rtl.Backend.Structural ~vcd_iterations:3 g tbl s in
  let vcd =
    match resp.Rtl.Backend.vcd_text with
    | Some v -> v
    | None -> Alcotest.fail "vcd_iterations > 0 must emit a trace"
  in
  Alcotest.(check bool) "step var" true (contains vcd "$var wire 32 ! step");
  Alcotest.(check bool) "busy var" true (contains vcd "busy_A_0");
  Alcotest.(check bool) "op var" true (contains vcd "op_v0");
  Alcotest.(check bool) "scope is the module" true
    (contains vcd "$scope module hetsched_datapath $end");
  Alcotest.(check bool) "timestamps" true
    (contains vcd "#0\n" && contains vcd "#18\n" && not (contains vcd "#19"));
  (* the step counter wraps with the period, like the FSM *)
  Alcotest.(check bool) "step wraps at the period" true
    (contains vcd "#6\nb0 !\n");
  (* all three nodes share instance A[0] back to back, so it is busy for
     the whole trace: set once at #0, cleared only at the horizon *)
  Alcotest.(check int) "busy bit changes" 2 (count_occurrences vcd "\"\n");
  (* identifiers must be unique *)
  let defs =
    List.filter (fun l -> String.length l > 4 && String.sub l 0 4 = "$var")
      (String.split_on_char '\n' vcd)
  in
  let ids =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | _ :: _ :: _ :: id :: _ -> id
        | _ -> Alcotest.fail "malformed $var line")
      defs
  in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_testbench_structure () =
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 2) ] in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 2; 2 ], [ 1; 1 ]))) in
  let s = { Sched.Schedule.start = [| 0; 2; 4 |]; assignment = [| 0; 0; 0 |] } in
  let input _ i = i + 1 in
  let resp = lower ~testbench_iterations:3 ~stimulus:input g tbl s in
  let tb = Option.get resp.Rtl.Backend.testbench_text in
  Alcotest.(check bool) "tb module" true (contains tb "module hetsched_datapath_tb");
  Alcotest.(check bool) "instantiates dut" true (contains tb "hetsched_datapath #(.W(16)) dut");
  Alcotest.(check bool) "check task" true (contains tb "task check");
  Alcotest.(check bool) "pass banner" true (contains tb "TESTBENCH PASSED");
  Alcotest.(check bool) "finishes" true (contains tb "$finish");
  (* expected values come from the interpreter: the correlator's v2 output
     for input 1,2,3 is x(i)+? — compute and cross-check one literal *)
  let expected = Dfg.Interp.run g ~iterations:3 ~input in
  Alcotest.(check bool) "first expected value embedded" true
    (contains tb (Printf.sprintf "check(out_v2, %d, 0);" (expected.(2).(0) land 0xFFFF)));
  (* three iterations -> three checks of the single output *)
  Alcotest.(check int) "one check per iteration" 3
    (count_occurrences tb "check(out_v2");
  Alcotest.check_raises "bad iterations"
    (Invalid_argument "Backend.request: testbench_iterations < 0") (fun () ->
      ignore
        (Rtl.Backend.request ~testbench_iterations:(-1) g tbl s));
  (* the datapath it targets resets its state, as the golden model
     assumes: the FSM, the history chain and the output hold register *)
  let v = resp.Rtl.Backend.module_text in
  Alcotest.(check bool) "step counter reset" true (contains v "if (rst) step <= 0;");
  Alcotest.(check bool) "history reset" true (contains v "h_v2_2 <= 0;");
  Alcotest.(check bool) "hold reset" true (contains v "if (rst) hold_v2 <= 0;")

let test_flow_infeasible () =
  with_temp_dir (fun dir ->
      let g = path_graph 3 in
      let tbl = table lib2 (List.init 3 (fun _ -> ([ 2; 3 ], [ 2; 1 ]))) in
      Alcotest.(check bool) "impossible deadline" true
        (Flow.compile ~deadline:3 g tbl ~outdir:dir = None))

let () =
  Alcotest.run "rtl_flow"
    [
      ( "facade",
        [
          quick "response shape" test_backend_response_shape;
          quick "interconnect without sharing" test_interconnect_zero_without_sharing;
          quick "interconnect with sharing" test_interconnect_counts_sharing;
        ] );
      ("verilog", [ quick "name sanitisation" test_verilog_sanitizes_names ]);
      ( "flow",
        [
          quick "compile" test_flow_compile;
          quick "vcd structure" test_vcd_structure;
          quick "testbench structure" test_testbench_structure;
          quick "compile from file" test_flow_compile_file;
          quick "infeasible" test_flow_infeasible;
        ] );
    ]
