(* Coverage for the smaller reporting/facade pieces: Report, Svg_chart,
   Synthesis dispatch, expansion caps, Config corner cases. *)

open Helpers

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Report ------------------------------------------------------------- *)

let test_report_render_alignment () =
  let out =
    Core.Report.render ~title:"t" ~header:[ "a"; "bb" ]
      [ [ "xxx"; "y" ]; [ "z" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | _title :: header :: sep :: _ ->
      Alcotest.(check int) "separator matches header width"
        (String.length header) (String.length sep)
  | _ -> Alcotest.fail "unexpected layout");
  Alcotest.(check bool) "ragged row tolerated" true (contains out "z")

let test_report_percent () =
  Alcotest.(check string) "reduction" "25.0%"
    (Core.Report.percent ~baseline:(Some 100) ~value:75);
  Alcotest.(check string) "negative reduction" "-10.0%"
    (Core.Report.percent ~baseline:(Some 100) ~value:110);
  Alcotest.(check string) "no baseline" "-"
    (Core.Report.percent ~baseline:None ~value:5);
  Alcotest.(check string) "zero baseline" "-"
    (Core.Report.percent ~baseline:(Some 0) ~value:5);
  Alcotest.(check string) "missing cost" "-" (Core.Report.cost_cell None);
  Alcotest.(check string) "present cost" "7" (Core.Report.cost_cell (Some 7))

(* --- Svg_chart ----------------------------------------------------------- *)

let test_line_chart_structure () =
  let svg =
    Core.Svg_chart.line_chart ~title:"T & <chart>" ~x_label:"x" ~y_label:"y"
      [
        { Core.Svg_chart.label = "s1"; points = [ (1.0, 10.0); (3.0, 5.0) ] };
        { Core.Svg_chart.label = "s2"; points = [ (2.0, 8.0) ] };
      ]
  in
  Alcotest.(check bool) "svg root" true (contains svg "<svg ");
  Alcotest.(check bool) "closes" true (contains svg "</svg>");
  Alcotest.(check bool) "escapes title" true (contains svg "T &amp; &lt;chart&gt;");
  Alcotest.(check bool) "legend entries" true (contains svg ">s1<" && contains svg ">s2<");
  Alcotest.(check bool) "polyline path" true (contains svg "<path d=\"M");
  Alcotest.(check bool) "data markers" true (contains svg "<circle")

let test_line_chart_empty_rejected () =
  Alcotest.check_raises "no points"
    (Invalid_argument "Svg_chart.line_chart: no points") (fun () ->
      ignore
        (Core.Svg_chart.line_chart ~title:"t" ~x_label:"x" ~y_label:"y"
           [ { Core.Svg_chart.label = "s"; points = [] } ]))

let test_bar_chart_structure () =
  let svg =
    Core.Svg_chart.bar_chart ~title:"bars" ~y_label:"%"
      [ ("a", 5.0); ("b", -2.0); ("c", 0.0) ]
  in
  Alcotest.(check bool) "three bars + background" true
    (let count = ref 0 in
     let nl = String.length "<rect " in
     for i = 0 to String.length svg - nl do
       if String.sub svg i nl = "<rect " then incr count
     done;
     !count = 4);
  Alcotest.(check bool) "labels present" true
    (contains svg ">a<" && contains svg ">b<" && contains svg ">c<")

let test_degenerate_single_point () =
  (* a single point must not divide by zero *)
  let svg =
    Core.Svg_chart.line_chart ~title:"p" ~x_label:"x" ~y_label:"y"
      [ { Core.Svg_chart.label = "s"; points = [ (2.0, 2.0) ] } ]
  in
  Alcotest.(check bool) "renders" true (contains svg "<circle")

(* --- Synthesis dispatch -------------------------------------------------- *)

let test_all_algorithms_run_on_diamond () =
  let g = diamond () in
  let tbl =
    table lib3
      [
        ([ 1; 2; 3 ], [ 10; 6; 2 ]);
        ([ 1; 2; 4 ], [ 12; 7; 3 ]);
        ([ 2; 3; 5 ], [ 9; 4; 1 ]);
        ([ 1; 3; 4 ], [ 8; 5; 2 ]);
      ]
  in
  let deadline = 9 in
  List.iter
    (fun algo ->
      if algo <> Core.Synthesis.Tree (* diamond is not a forest *) then
        match
          (Core.Synthesis.solve
             (Core.Synthesis.request ~algorithm:algo ~deadline g tbl))
            .Core.Synthesis.result
        with
        | Some r ->
            Alcotest.(check bool)
              (Core.Synthesis.algorithm_name algo ^ " feasible")
              true
              (Assign.Assignment.is_feasible g tbl r.Core.Synthesis.assignment
                 ~deadline)
        | None -> Alcotest.failf "%s failed" (Core.Synthesis.algorithm_name algo))
    Assign.Solve.all

let test_algorithm_names_unique () =
  let names = List.map Core.Synthesis.algorithm_name Assign.Solve.all in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_pp_result_mentions_everything () =
  let g = diamond () in
  let tbl =
    table lib2
      [ ([ 1; 2 ], [ 6; 2 ]); ([ 2; 3 ], [ 7; 3 ]); ([ 2; 4 ], [ 8; 2 ]); ([ 1; 2 ], [ 5; 1 ]) ]
  in
  match
    (Core.Synthesis.solve
       (Core.Synthesis.request ~algorithm:Core.Synthesis.Greedy ~deadline:6 g
          tbl))
      .Core.Synthesis.result
  with
  | None -> Alcotest.fail "feasible"
  | Some r ->
      let s = Format.asprintf "%a" (Core.Synthesis.pp_result ~graph:g ~table:tbl) r in
      List.iter
        (fun needle ->
          Alcotest.(check bool) (needle ^ " present") true (contains s needle))
        [ "algorithm"; "cost"; "makespan"; "config"; "registers"; "per-FU" ]

(* --- Expansion caps ------------------------------------------------------ *)

let test_expansion_cap_propagates () =
  (* chain of diamonds explodes; the heuristics surface Too_large rather
     than hanging *)
  let d = 18 in
  let edges =
    List.concat
      (List.init d (fun i ->
           let base = 3 * i in
           [ (base, base + 1); (base, base + 2); (base + 1, base + 3); (base + 2, base + 3) ]))
  in
  let g = graph ((3 * d) + 1) edges in
  let rng = Workloads.Prng.create 1 in
  let tbl =
    Workloads.Tables.random_tradeoff rng ~library:lib2
      ~num_nodes:(Dfg.Graph.num_nodes g)
  in
  Alcotest.check_raises "once hits the cap" (Dfg.Expand.Too_large 1000)
    (fun () ->
      ignore (Assign.Dfg_assign.once ~max_nodes:1000 g tbl ~deadline:100))

(* --- Config corners ------------------------------------------------------ *)

let test_config_corners () =
  Alcotest.(check string) "empty config" "" (Sched.Config.to_string [||]);
  Alcotest.(check int) "empty total" 0 (Sched.Config.total [||]);
  Alcotest.(check bool) "length mismatch never dominates" false
    (Sched.Config.dominates [| 1 |] [| 1; 0 |])

let () =
  Alcotest.run "misc"
    [
      ( "report",
        [
          quick "render alignment" test_report_render_alignment;
          quick "percent formatting" test_report_percent;
        ] );
      ( "svg_chart",
        [
          quick "line chart" test_line_chart_structure;
          quick "empty rejected" test_line_chart_empty_rejected;
          quick "bar chart" test_bar_chart_structure;
          quick "single point" test_degenerate_single_point;
        ] );
      ( "synthesis",
        [
          quick "all algorithms run" test_all_algorithms_run_on_diamond;
          quick "names unique" test_algorithm_names_unique;
          quick "pp_result complete" test_pp_result_mentions_everything;
        ] );
      ( "caps/corners",
        [
          quick "expansion cap propagates" test_expansion_cap_propagates;
          quick "config corners" test_config_corners;
        ] );
    ]
