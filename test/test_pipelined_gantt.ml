(* Tests for pipelined-FU scheduling semantics and the Gantt renderer. *)

open Helpers

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let mul3 = fun _ -> true (* every type pipelined *)
let none = fun _ -> false

(* 4 independent 3-cycle ops, one FU instance *)
let independent () =
  (graph 4 [], table lib2 (List.init 4 (fun _ -> ([ 3; 3 ], [ 1; 1 ]))))

let test_pipelined_resource_constrained () =
  let g, tbl = independent () in
  let a = Array.make 4 0 in
  (* non-pipelined: serial, 12 steps; pipelined II=1: issue back to back,
     finish at 3 + 3 = 6 *)
  (match Sched.Resource_constrained.makespan g tbl a ~config:[| 1; 0 |] with
  | Some l -> Alcotest.(check int) "serial" 12 l
  | None -> Alcotest.fail "feasible");
  match
    Sched.Resource_constrained.makespan ~pipelined:mul3 g tbl a ~config:[| 1; 0 |]
  with
  | Some l -> Alcotest.(check int) "pipelined" 6 l
  | None -> Alcotest.fail "feasible"

let test_pipelined_min_resource () =
  let g, tbl = independent () in
  let a = Array.make 4 0 in
  (* deadline 6: non-pipelined needs 2 FUs; pipelined needs 1 *)
  (match Sched.Min_resource.run g tbl a ~deadline:6 with
  | Some { Sched.Min_resource.config; _ } ->
      Alcotest.(check (array int)) "2 FUs without pipelining" [| 2; 0 |] config
  | None -> Alcotest.fail "feasible");
  match Sched.Min_resource.run ~pipelined:mul3 g tbl a ~deadline:6 with
  | Some { Sched.Min_resource.config; schedule; _ } ->
      Alcotest.(check (array int)) "1 pipelined FU" [| 1; 0 |] config;
      Alcotest.(check bool) "precedence still holds" true
        (Sched.Schedule.respects_precedence g tbl schedule);
      Alcotest.(check bool) "deadline met" true
        (Sched.Schedule.meets_deadline tbl schedule ~deadline:6)
  | None -> Alcotest.fail "feasible"

let test_pipelined_peak_usage_and_binding () =
  let g, tbl = independent () in
  ignore g;
  let s =
    { Sched.Schedule.start = [| 0; 1; 2; 3 |]; assignment = [| 0; 0; 0; 0 |] }
  in
  Alcotest.(check (array int)) "overlapped usage without pipelining" [| 3; 0 |]
    (Sched.Schedule.peak_usage tbl s);
  Alcotest.(check (array int)) "issue-width usage with pipelining" [| 1; 0 |]
    (Sched.Schedule.peak_usage ~pipelined:mul3 tbl s);
  let b = Sched.Binding.bind ~pipelined:mul3 tbl s in
  Alcotest.(check (array int)) "one instance" [| 1; 0 |] b.Sched.Binding.config;
  Alcotest.(check bool) "valid under pipelined rules" true
    (Oracle.Binding.is_valid ~pipelined:mul3 tbl s b);
  (* the same binding is a conflict under non-pipelined rules *)
  Alcotest.(check bool) "conflict without pipelining" false
    (Oracle.Binding.is_valid ~pipelined:none tbl s b)

let test_pipelined_dependent_ops_unaffected () =
  (* dependencies still serialise through full latency, pipelined or not *)
  let g = path_graph 3 in
  let tbl = table lib2 (List.init 3 (fun _ -> ([ 3; 3 ], [ 1; 1 ]))) in
  let a = Array.make 3 0 in
  match
    Sched.Resource_constrained.makespan ~pipelined:mul3 g tbl a ~config:[| 1; 0 |]
  with
  | Some l -> Alcotest.(check int) "latency chains" 9 l
  | None -> Alcotest.fail "feasible"

let test_gantt_rendering () =
  let g = diamond () in
  let tbl =
    table lib2
      [ ([ 1; 2 ], [ 6; 2 ]); ([ 2; 3 ], [ 7; 3 ]); ([ 2; 4 ], [ 8; 2 ]); ([ 1; 2 ], [ 5; 1 ]) ]
  in
  let s = { Sched.Schedule.start = [| 0; 1; 1; 3 |]; assignment = [| 0; 0; 0; 0 |] } in
  let out = Sched.Gantt.render ~graph:g ~table:tbl s in
  Alcotest.(check bool) "header" true (contains out "step");
  Alcotest.(check bool) "two instance rows" true
    (contains out "A[0]" && contains out "A[1]");
  (* v0 paints 'v' at column 0 of instance 0; idle dots exist *)
  Alcotest.(check bool) "idle marks" true (contains out ".");
  let lines = String.split_on_char '\n' out in
  let width =
    List.fold_left (fun acc l -> max acc (String.length l)) 0 lines
  in
  Alcotest.(check bool) "aligned rows" true (width <= 10 + 4 + 1)

let test_gantt_empty () =
  let g = graph 0 [] in
  let tbl = table lib2 [] in
  let s = { Sched.Schedule.start = [||]; assignment = [||] } in
  let out = Sched.Gantt.render ~graph:g ~table:tbl s in
  Alcotest.(check bool) "renders header only" true (contains out "step")

let () =
  Alcotest.run "sched.pipelined_gantt"
    [
      ( "pipelined",
        [
          quick "resource-constrained" test_pipelined_resource_constrained;
          quick "min-resource" test_pipelined_min_resource;
          quick "peak usage and binding" test_pipelined_peak_usage_and_binding;
          quick "dependencies unaffected" test_pipelined_dependent_ops_unaffected;
        ] );
      ( "gantt",
        [
          quick "rendering" test_gantt_rendering;
          quick "empty" test_gantt_empty;
        ] );
    ]
