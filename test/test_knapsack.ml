open Helpers

let items l = Array.of_list (List.map (fun (value, weight) -> { Oracle.Knapsack.value; weight }) l)

let test_classic_instance () =
  let its = items [ (60, 10); (100, 20); (120, 30) ] in
  Alcotest.(check int) "best of capacity 50" 220
    (Oracle.Knapsack.max_value ~items:its ~capacity:50);
  let chosen, v = Oracle.Knapsack.solve ~items:its ~capacity:50 in
  Alcotest.(check int) "solve agrees" 220 v;
  Alcotest.(check (array bool)) "items 2 and 3" [| false; true; true |] chosen

let test_zero_capacity () =
  let its = items [ (5, 1); (9, 2) ] in
  Alcotest.(check int) "nothing fits" 0 (Oracle.Knapsack.max_value ~items:its ~capacity:0)

let test_zero_weight_items_always_taken () =
  let its = items [ (5, 0); (9, 2) ] in
  Alcotest.(check int) "free item" 5 (Oracle.Knapsack.max_value ~items:its ~capacity:1)

let test_empty () =
  Alcotest.(check int) "no items" 0 (Oracle.Knapsack.max_value ~items:[||] ~capacity:10)

let test_negative_rejected () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Knapsack: negative value or weight") (fun () ->
      ignore (Oracle.Knapsack.max_value ~items:(items [ (-1, 2) ]) ~capacity:3))

let test_solution_subset_consistent () =
  let rng = Workloads.Prng.create 21 in
  for _ = 1 to 50 do
    let n = 1 + Workloads.Prng.int rng 10 in
    let its =
      Array.init n (fun _ ->
          { Oracle.Knapsack.value = Workloads.Prng.int rng 20;
            weight = Workloads.Prng.int rng 12 })
    in
    let capacity = Workloads.Prng.int rng 40 in
    let chosen, v = Oracle.Knapsack.solve ~items:its ~capacity in
    let total_v = ref 0 and total_w = ref 0 in
    Array.iteri
      (fun i c ->
        if c then begin
          total_v := !total_v + its.(i).Oracle.Knapsack.value;
          total_w := !total_w + its.(i).Oracle.Knapsack.weight
        end)
      chosen;
    Alcotest.(check int) "reported value matches subset" v !total_v;
    Alcotest.(check bool) "within capacity" true (!total_w <= capacity)
  done

let test_decision () =
  let its = items [ (60, 10); (100, 20); (120, 30) ] in
  Alcotest.(check bool) "achievable" true
    (Oracle.Knapsack.decision ~items:its ~capacity:50 ~target_value:220);
  Alcotest.(check bool) "not achievable" false
    (Oracle.Knapsack.decision ~items:its ~capacity:50 ~target_value:221)

(* --- Theorem 4.1 round trip: knapsack <-> 2-type path assignment --- *)

let test_reduction_structure () =
  let its = items [ (7, 3); (4, 1) ] in
  let inst = Oracle.Np_reduction.of_knapsack ~items:its ~capacity:4 in
  Alcotest.(check int) "deadline = n + W" 6 inst.Oracle.Np_reduction.deadline;
  Alcotest.(check int) "M = max value + 1" 8 inst.Oracle.Np_reduction.big;
  let tbl = inst.Oracle.Np_reduction.table in
  Alcotest.(check int) "select time = w + 1" 4 (Fulib.Table.time tbl ~node:0 ~ftype:0);
  Alcotest.(check int) "skip time = 1" 1 (Fulib.Table.time tbl ~node:0 ~ftype:1);
  Alcotest.(check int) "select cost = M - a" 1 (Fulib.Table.cost tbl ~node:0 ~ftype:0);
  Alcotest.(check int) "skip cost = M" 8 (Fulib.Table.cost tbl ~node:0 ~ftype:1)

let test_reduction_agrees_with_dp () =
  let rng = Workloads.Prng.create 31 in
  for _ = 1 to 60 do
    let n = 1 + Workloads.Prng.int rng 6 in
    let its =
      Array.init n (fun _ ->
          { Oracle.Knapsack.value = Workloads.Prng.int rng 15;
            weight = Workloads.Prng.int rng 8 })
    in
    let capacity = Workloads.Prng.int rng 20 in
    let target_value = Workloads.Prng.int rng 40 in
    Alcotest.(check bool)
      (Printf.sprintf "decision equivalence (n=%d W=%d V=%d)" n capacity target_value)
      (Oracle.Knapsack.decision ~items:its ~capacity ~target_value)
      (Oracle.Np_reduction.decide_via_assignment ~items:its ~capacity ~target_value)
  done

let test_reduction_optimal_subset_maps_back () =
  let its = items [ (60, 10); (100, 20); (120, 30) ] in
  let inst = Oracle.Np_reduction.of_knapsack ~items:its ~capacity:50 in
  let table = inst.Oracle.Np_reduction.table in
  match
    Assign.Tree_assign.solve (Oracle.Path_assign.chain table) table
      ~deadline:inst.Oracle.Np_reduction.deadline
  with
  | None -> Alcotest.fail "reduction instance must be feasible"
  | Some a ->
      let subset = Oracle.Np_reduction.subset_of_assignment a in
      Alcotest.(check (array bool)) "optimal subset" [| false; true; true |] subset

let () =
  Alcotest.run "assign.knapsack"
    [
      ( "knapsack",
        [
          quick "classic instance" test_classic_instance;
          quick "zero capacity" test_zero_capacity;
          quick "zero-weight items" test_zero_weight_items_always_taken;
          quick "empty" test_empty;
          quick "negative rejected" test_negative_rejected;
          quick "subset consistent" test_solution_subset_consistent;
          quick "decision" test_decision;
        ] );
      ( "np_reduction",
        [
          quick "instance structure" test_reduction_structure;
          quick "decision round-trip" test_reduction_agrees_with_dp;
          quick "optimal subset maps back" test_reduction_optimal_subset_maps_back;
        ] );
    ]
