(* Tests for the core-level extensions: Pareto frontiers, CSV export, and
   the DVS table model behind the library-size study. *)

open Helpers

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let small_setup () =
  let g = graph 4 [ (0, 1); (0, 2); (2, 3) ] in
  let tbl =
    table lib3
      [
        ([ 1; 2; 3 ], [ 10; 6; 2 ]);
        ([ 1; 2; 4 ], [ 12; 7; 3 ]);
        ([ 2; 3; 5 ], [ 9; 4; 1 ]);
        ([ 1; 3; 4 ], [ 8; 5; 2 ]);
      ]
  in
  (g, tbl)

(* --- Frontier ---------------------------------------------------------- *)

let test_frontier_staircase () =
  let g, tbl = small_setup () in
  let points =
    Core.Frontier.trace ~algorithm:Core.Synthesis.Exact g tbl ~max_deadline:16
  in
  Alcotest.(check bool) "non-empty" true (points <> []);
  let rec check = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) "deadlines increase" true
          (a.Core.Frontier.deadline < b.Core.Frontier.deadline);
        Alcotest.(check bool) "costs decrease" true
          (a.Core.Frontier.cost > b.Core.Frontier.cost);
        check rest
    | _ -> ()
  in
  check points;
  (* first point = minimum feasible deadline; last = unconstrained optimum *)
  (match points with
  | first :: _ ->
      Alcotest.(check int) "starts at Tmin"
        (Core.Synthesis.min_deadline g tbl)
        first.Core.Frontier.deadline
  | [] -> ());
  let last = List.nth points (List.length points - 1) in
  let cheapest =
    Assign.Assignment.total_cost tbl (Assign.Assignment.all_cheapest tbl)
  in
  Alcotest.(check int) "ends at the unconstrained optimum" cheapest
    last.Core.Frontier.cost

let test_frontier_infeasible_max () =
  let g, tbl = small_setup () in
  Alcotest.(check (list (pair int int))) "empty below Tmin" []
    (List.map
       (fun p -> (p.Core.Frontier.deadline, p.Core.Frontier.cost))
       (Core.Frontier.trace g tbl
          ~max_deadline:(Core.Synthesis.min_deadline g tbl - 1)))

let test_frontier_heuristic_monotone () =
  (* even with a heuristic, the reported staircase must be monotone by
     construction *)
  let g = Workloads.Filters.rls_laguerre () in
  let rng = Workloads.Prng.create 57 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  let tmin = Core.Synthesis.min_deadline g tbl in
  let points = Core.Frontier.trace g tbl ~max_deadline:(tmin * 2) in
  let costs = List.map (fun p -> p.Core.Frontier.cost) points in
  let rec strictly_decreasing = function
    | a :: (b :: _ as t) -> a > b && strictly_decreasing t
    | _ -> true
  in
  Alcotest.(check bool) "strict staircase" true (strictly_decreasing costs);
  Alcotest.(check bool) "rendering works" true
    (contains (Core.Frontier.to_string points) "frontier")

(* --- CSV --------------------------------------------------------------- *)

let test_csv_escaping () =
  let out =
    Core.Csv.render ~header:[ "a"; "b" ]
      [ [ "plain"; "with,comma" ]; [ "with\"quote"; "with\nnewline" ] ]
  in
  Alcotest.(check bool) "comma quoted" true (contains out "\"with,comma\"");
  Alcotest.(check bool) "quote doubled" true (contains out "\"with\"\"quote\"");
  Alcotest.(check bool) "newline quoted" true (contains out "\"with\nnewline\"");
  Alcotest.(check bool) "plain untouched" true (contains out "plain,")

(* Naive quote-aware CSV parser: the round-trip oracle for Csv.render.
   Splits records on the locked "\n" convention, honours quoted fields and
   doubled quotes, preserves field bytes otherwise. *)
let naive_parse csv =
  let records = ref [] and fields = ref [] and buf = Buffer.create 16 in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let n = String.length csv in
  let rec go i ~quoted =
    if i >= n then ()
    else
      let c = csv.[i] in
      if quoted then
        if c = '"' then
          if i + 1 < n && csv.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            go (i + 2) ~quoted:true
          end
          else go (i + 1) ~quoted:false
        else begin
          Buffer.add_char buf c;
          go (i + 1) ~quoted:true
        end
      else
        match c with
        | '"' -> go (i + 1) ~quoted:true
        | ',' ->
            flush_field ();
            go (i + 1) ~quoted:false
        | '\n' ->
            flush_record ();
            go (i + 1) ~quoted:false
        | c ->
            Buffer.add_char buf c;
            go (i + 1) ~quoted:false
  in
  go 0 ~quoted:false;
  if Buffer.length buf > 0 || !fields <> [] then flush_record ();
  List.rev !records

let test_csv_round_trip () =
  (* the locked line-ending convention: records separated by a single LF
     (never CRLF), one trailing newline *)
  Alcotest.(check string) "LF line endings, trailing newline" "a,b\n1,2\n"
    (Core.Csv.render ~header:[ "a"; "b" ] [ [ "1"; "2" ] ]);
  let rows =
    [
      [ "plain"; "with,comma"; "with\"quote" ];
      [ "cr\rlf\ncrlf\r\n end"; "  leading and trailing  "; "" ];
      [ "\"quoted-looking\""; "a,b\"c\nd"; "tab\tstays" ];
    ]
  in
  let header = [ "h1"; "h2"; "h3" ] in
  match naive_parse (Core.Csv.render ~header rows) with
  | parsed_header :: parsed_rows ->
      Alcotest.(check (list string)) "header survives" header parsed_header;
      Alcotest.(check int) "row count" (List.length rows) (List.length parsed_rows);
      List.iteri
        (fun i got ->
          Alcotest.(check (list string))
            (Printf.sprintf "row %d survives byte-for-byte" i)
            (List.nth rows i) got)
        parsed_rows
  | [] -> Alcotest.fail "no records parsed"

(* One report's rows: one line per (deadline, algorithm) plus the header. *)
let test_csv_of_report () =
  let report = List.hd (Core.Experiments.table2 ()) in
  let csv = Core.Csv.of_reports [ report ] in
  Alcotest.(check bool) "header" true
    (contains csv "deadline,algorithm,cost,reduction_vs_greedy,config");
  Alcotest.(check bool) "greedy rows" true (contains csv "Greedy");
  (* one line per (row, algorithm) + header *)
  let lines = List.length (String.split_on_char '\n' (String.trim csv)) in
  let expected =
    1
    + List.fold_left
        (fun acc r -> acc + List.length r.Core.Experiments.costs)
        0 report.Core.Experiments.rows
  in
  Alcotest.(check int) "line count" expected lines

let test_csv_of_reports_prefixes_benchmark () =
  let reports = Core.Experiments.table2 () in
  let csv = Core.Csv.of_reports reports in
  Alcotest.(check bool) "benchmark column" true (contains csv "benchmark,deadline");
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Core.Experiments.name ^ " present")
        true
        (contains csv r.Core.Experiments.name))
    reports

let test_csv_of_frontier () =
  let g, tbl = small_setup () in
  let points = Core.Frontier.trace ~algorithm:Core.Synthesis.Exact g tbl ~max_deadline:14 in
  let csv = Core.Csv.of_frontier points in
  Alcotest.(check bool) "header" true (contains csv "deadline,cost,config")

(* --- DVS tables -------------------------------------------------------- *)

let test_dvs_monotone_tradeoff () =
  let g = Workloads.Filters.elliptic () in
  let rng = Workloads.Prng.create 61 in
  let tbl = Workloads.Tables.dvs rng ~levels:4 g in
  Alcotest.(check int) "4 levels" 4 (Fulib.Table.num_types tbl);
  Alcotest.(check string) "level names" "V2"
    (Fulib.Library.type_name (Fulib.Table.library tbl) 2);
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    for k = 1 to 3 do
      Alcotest.(check bool) "times non-decreasing" true
        (Fulib.Table.time tbl ~node:v ~ftype:k
        >= Fulib.Table.time tbl ~node:v ~ftype:(k - 1));
      Alcotest.(check bool) "energy non-increasing" true
        (Fulib.Table.cost tbl ~node:v ~ftype:k
        <= Fulib.Table.cost tbl ~node:v ~ftype:(k - 1))
    done
  done

let test_dvs_energy_falls_with_levels () =
  (* the library-size study's core claim, asserted deterministically *)
  let g = Workloads.Filters.diffeq () in
  let energy levels =
    let rng = Workloads.Prng.create 7 in
    let tbl = Workloads.Tables.dvs rng ~levels g in
    let tmin = Core.Synthesis.min_deadline g tbl in
    match
      Assign.Solve.dispatch Core.Synthesis.Repeat g tbl
        ~deadline:(tmin + (tmin / 2))
    with
    | Some a -> Assign.Assignment.total_cost tbl a
    | None -> Alcotest.fail "feasible"
  in
  let e1 = energy 1 and e3 = energy 3 and e5 = energy 5 in
  Alcotest.(check bool) (Printf.sprintf "%d > %d > %d" e1 e3 e5) true
    (e1 > e3 && e3 >= e5)

let test_dvs_invalid () =
  let g = graph 1 [] in
  let rng = Workloads.Prng.create 1 in
  Alcotest.check_raises "0 levels" (Invalid_argument "Tables.dvs: levels < 1")
    (fun () -> ignore (Workloads.Tables.dvs rng ~levels:0 g))

let () =
  Alcotest.run "core.extensions"
    [
      ( "frontier",
        [
          quick "staircase" test_frontier_staircase;
          quick "infeasible max deadline" test_frontier_infeasible_max;
          quick "heuristic staircase monotone" test_frontier_heuristic_monotone;
        ] );
      ( "csv",
        [
          quick "escaping" test_csv_escaping;
          quick "round trip" test_csv_round_trip;
          quick "of_report" test_csv_of_report;
          quick "of_reports" test_csv_of_reports_prefixes_benchmark;
          quick "of_frontier" test_csv_of_frontier;
        ] );
      ( "dvs",
        [
          quick "monotone trade-off" test_dvs_monotone_tradeoff;
          quick "energy falls with levels" test_dvs_energy_falls_with_levels;
          quick "invalid levels" test_dvs_invalid;
        ] );
    ]
