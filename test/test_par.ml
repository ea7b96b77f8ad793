(* Par.Pool: unit tests for the pool semantics (ordering, exceptions,
   nesting, env control, sequential fallback) and differential suites
   proving the parallel paths bit-identical to the sequential ones — on
   random DAG grids, the six paper benchmarks, Repeat's candidate search,
   Pareto sweeps and batch workload generation. *)

open Helpers

(* One parallel and one sequential pool shared by every test: the
   differential suites run the same computation on both and demand
   structural equality. *)
let p1 = Par.Pool.create ~domains:1 ()
let p4 = Par.Pool.create ~domains:4 ()

(* --- pool combinators ---------------------------------------------------- *)

let test_map_array_order () =
  let arr = Array.init 257 (fun i -> i) in
  let expected = Array.map (fun x -> (x * x) + 1) arr in
  Alcotest.(check (array int))
    "parallel map == Array.map" expected
    (Par.Pool.map_array p4 (fun x -> (x * x) + 1) arr);
  Alcotest.(check (array int))
    "sequential map == Array.map" expected
    (Par.Pool.map_array p1 (fun x -> (x * x) + 1) arr);
  Alcotest.(check (array int)) "empty" [||] (Par.Pool.map_array p4 succ [||])

let test_map_list_order () =
  let l = List.init 100 (fun i -> i) in
  Alcotest.(check (list int))
    "map_list order" (List.map succ l)
    (Par.Pool.map_list p4 succ l)

let test_parallel_for () =
  let a = Array.make 100 0 in
  Par.Pool.parallel_for p4 ~lo:0 ~hi:100 (fun i -> a.(i) <- i * i);
  Alcotest.(check (array int)) "default chunking"
    (Array.init 100 (fun i -> i * i))
    a;
  let b = Array.make 100 0 in
  Par.Pool.parallel_for p4 ~chunk:7 ~lo:5 ~hi:95 (fun i -> b.(i) <- i + 1);
  Alcotest.(check (array int)) "explicit chunk, half-open bounds"
    (Array.init 100 (fun i -> if i >= 5 && i < 95 then i + 1 else 0))
    b

let test_fanout () =
  let a, b = Par.Pool.fanout2 p4 (fun () -> 6 * 7) (fun () -> "ok") in
  Alcotest.(check int) "fanout2 fst" 42 a;
  Alcotest.(check string) "fanout2 snd" "ok" b;
  Alcotest.(check (list int))
    "fanout order" [ 0; 10; 20 ]
    (Par.Pool.fanout p4 (List.init 3 (fun i () -> i * 10)))

let test_exception_propagation () =
  let raised =
    try
      ignore
        (Par.Pool.map_array p4
           (fun i -> if i mod 3 = 1 then failwith (string_of_int i) else i)
           (Array.init 64 (fun i -> i)));
      None
    with Failure m -> Some m
  in
  Alcotest.(check (option string)) "lowest-index exception wins" (Some "1") raised;
  Alcotest.(check (array int))
    "pool usable after an exception" [| 2; 4; 6 |]
    (Par.Pool.map_array p4 (fun x -> x * 2) [| 1; 2; 3 |])

let test_nested_create_rejected () =
  let rejected =
    Par.Pool.map_array p4
      (fun _ ->
        match Par.Pool.create ~domains:2 () with
        | _ -> false
        | exception Par.Pool.Nested_pool -> true)
      (Array.init 8 (fun i -> i))
  in
  Alcotest.(check bool)
    "Pool.create inside a task raises Nested_pool" true
    (Array.for_all (fun b -> b) rejected)

let test_nested_map_degrades () =
  (* a combinator used from inside a task runs inline, with the same
     results as at top level; checks happen on the calling domain, since
     Alcotest's own state is not domain-safe *)
  let result =
    Par.Pool.map_array p4
      (fun i ->
        ( Par.Pool.in_task (),
          Array.to_list
            (Par.Pool.map_array p4
               (fun j -> (i * 10) + j)
               (Array.init 4 (fun j -> j))) ))
      (Array.init 6 (fun i -> i))
  in
  Alcotest.(check bool) "in_task outside" false (Par.Pool.in_task ());
  Array.iteri
    (fun i (inside, l) ->
      Alcotest.(check bool) "in_task inside" true inside;
      Alcotest.(check (list int))
        "nested map results" (List.init 4 (fun j -> (i * 10) + j)) l)
    result

let test_sequential_fallback () =
  Alcotest.(check bool) "domains:1 is sequential" true (Par.Pool.is_sequential p1);
  Alcotest.(check int) "domain_count 1" 1 (Par.Pool.domain_count p1);
  Alcotest.(check bool) "domains:4 is parallel" false (Par.Pool.is_sequential p4);
  Alcotest.(check int) "domain_count 4" 4 (Par.Pool.domain_count p4)

let test_create_invalid () =
  (match Par.Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains:0 accepted"
  | exception Invalid_argument _ -> ());
  Par.Pool.with_pool ~domains:2 (fun p ->
      Alcotest.(check int) "with_pool width" 2 (Par.Pool.domain_count p))

let test_shutdown () =
  let p = Par.Pool.create ~domains:2 () in
  Alcotest.(check (array int)) "works" [| 1 |] (Par.Pool.map_array p succ [| 0 |]);
  Par.Pool.shutdown p;
  Par.Pool.shutdown p;
  (* double shutdown is a no-op *)
  match Par.Pool.map_array p succ [| 0 |] with
  | _ -> Alcotest.fail "pool usable after shutdown"
  | exception Invalid_argument _ -> ()

let test_domains_from_env () =
  let fake v k = if k = "HETSCHED_DOMAINS" then v else None in
  let rec_default = Domain.recommended_domain_count () in
  let resolve v = Par.Pool.domains_from_env ~getenv:(fake v) () in
  Alcotest.(check int) "unset -> recommended" rec_default (resolve None);
  Alcotest.(check int) "4" 4 (resolve (Some "4"));
  Alcotest.(check int) "1 = sequential" 1 (resolve (Some "1"));
  Alcotest.(check int) "0 clamps to 1" 1 (resolve (Some "0"));
  Alcotest.(check int) "negative clamps to 1" 1 (resolve (Some "-3"));
  Alcotest.(check int) "whitespace tolerated" 2 (resolve (Some " 2 "));
  Alcotest.(check int) "clamped to 128" 128 (resolve (Some "4096"));
  Alcotest.(check int) "129 clamps to 128" 128 (resolve (Some "129"));
  Alcotest.(check int) "128 passes through" 128 (resolve (Some "128"));
  Alcotest.(check int) "junk -> recommended" rec_default (resolve (Some "junk"));
  Alcotest.(check int) "empty -> recommended" rec_default (resolve (Some ""));
  Alcotest.(check int) "whitespace-only -> recommended" rec_default
    (resolve (Some "   "));
  Alcotest.(check int) "trailing junk -> recommended" rec_default
    (resolve (Some "2x"));
  Alcotest.(check int) "very negative clamps to 1" 1
    (resolve (Some "-1000000"))

(* --- differential: parallel == sequential -------------------------------- *)

let algorithms = Core.Synthesis.[ Greedy; Once; Repeat ]

let random_instance seed ~n ~extra =
  let rng = Workloads.Prng.create seed in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:extra in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  (g, tbl)

let diff_grid =
  QCheck.Test.make ~count:10 ~name:"experiment grid: parallel == sequential"
    QCheck.(triple (int_range 0 1000) (int_range 4 20) (int_range 0 8))
    (fun (seed, n, extra) ->
      let rng = Workloads.Prng.create seed in
      let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:extra in
      let r1 =
        Core.Experiments.run_benchmark ~pool:p1 ~name:"rand" ~seed ~algorithms g
      in
      let r4 =
        Core.Experiments.run_benchmark ~pool:p4 ~name:"rand" ~seed ~algorithms g
      in
      r1 = r4)

let diff_repeat_search =
  QCheck.Test.make ~count:20
    ~name:"repeat_search: parallel == sequential, feasible"
    QCheck.(triple (int_range 0 1000) (int_range 4 24) (int_range 0 10))
    (fun (seed, n, extra) ->
      let g, tbl = random_instance seed ~n ~extra in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let deadline = tmin + (tmin / 3) in
      let a1 = Assign.Dfg_assign.repeat_search ~pool:p1 g tbl ~deadline in
      let a4 = Assign.Dfg_assign.repeat_search ~pool:p4 g tbl ~deadline in
      (match a4 with
      | Some a ->
          if not (Assign.Assignment.is_feasible g tbl a ~deadline) then
            QCheck.Test.fail_report "repeat_search result misses the deadline"
      | None -> ());
      a1 = a4)

let diff_frontier =
  QCheck.Test.make ~count:10 ~name:"frontier sweep: parallel == sequential"
    QCheck.(triple (int_range 0 1000) (int_range 4 16) (int_range 0 6))
    (fun (seed, n, extra) ->
      let g, tbl = random_instance seed ~n ~extra in
      let tmin = Core.Synthesis.min_deadline g tbl in
      Core.Frontier.trace ~pool:p1 g tbl ~max_deadline:(tmin + 6)
      = Core.Frontier.trace ~pool:p4 g tbl ~max_deadline:(tmin + 6))

let test_paper_benchmarks_differential () =
  List.iter
    (fun (name, g) ->
      let seed =
        String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name
      in
      let r1 =
        Core.Experiments.run_benchmark ~pool:p1 ~name ~seed ~algorithms g
      in
      let r4 =
        Core.Experiments.run_benchmark ~pool:p4 ~name ~seed ~algorithms g
      in
      Alcotest.(check bool) (name ^ ": report bit-identical") true (r1 = r4))
    (Workloads.Filters.all ())

let test_batch_differential () =
  let gen rng = Workloads.Random_dfg.random_dag rng ~n:30 ~extra_edges:6 in
  let b1 = Workloads.Random_dfg.batch ~pool:p1 (Workloads.Prng.create 7) ~count:12 gen in
  let b4 = Workloads.Random_dfg.batch ~pool:p4 (Workloads.Prng.create 7) ~count:12 gen in
  (* the reference: sequential splits off the same parent *)
  let parent = Workloads.Prng.create 7 in
  let ref_graphs = Array.init 12 (fun _ -> gen (Workloads.Prng.split parent)) in
  Alcotest.(check int) "count" 12 (Array.length b4);
  Array.iteri
    (fun i g4 ->
      Alcotest.(check bool)
        (Printf.sprintf "graph %d: pool4 == pool1" i)
        true
        (Dfg.Graph.edges g4 = Dfg.Graph.edges b1.(i));
      Alcotest.(check bool)
        (Printf.sprintf "graph %d: pool == sequential reference" i)
        true
        (Dfg.Graph.edges g4 = Dfg.Graph.edges ref_graphs.(i)))
    b4;
  (* chunking is a pure scheduling knob: any chunk size, same graphs *)
  List.iter
    (fun chunk ->
      let bc =
        Workloads.Random_dfg.batch ~pool:p4 ~chunk (Workloads.Prng.create 7)
          ~count:12 gen
      in
      Array.iteri
        (fun i g ->
          Alcotest.(check bool)
            (Printf.sprintf "graph %d: chunk %d == default" i chunk)
            true
            (Dfg.Graph.edges g = Dfg.Graph.edges b4.(i)))
        bc)
    [ 1; 5; 12; 100 ]

let test_repeat_search_on_benchmarks () =
  (* the candidate search stays parallel/sequential-identical on every
     paper benchmark, and its result always respects the deadline *)
  List.iter
    (fun (name, g) ->
      let seed =
        String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name
      in
      let rng = Workloads.Prng.create seed in
      let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
      let tmin = Core.Synthesis.min_deadline g tbl in
      let deadline = tmin + (tmin / 5) in
      let s1 = Assign.Dfg_assign.repeat_search ~pool:p1 g tbl ~deadline in
      let s4 = Assign.Dfg_assign.repeat_search ~pool:p4 g tbl ~deadline in
      Alcotest.(check bool) (name ^ ": search par == seq") true (s1 = s4);
      match s4 with
      | Some a ->
          Alcotest.(check bool)
            (name ^ ": search feasible") true
            (Assign.Assignment.is_feasible g tbl a ~deadline)
      | None -> ())
    (Workloads.Filters.all ())

(* --- run_benchmark validation -------------------------------------------- *)

let test_missing_greedy_rejected () =
  let g = Workloads.Filters.diffeq () in
  (match
     Core.Experiments.run_benchmark ~name:"x" ~seed:1
       ~algorithms:Core.Synthesis.[ Once; Repeat ]
       g
   with
  | _ -> Alcotest.fail "algorithms without Greedy accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "message names Greedy" true
        (List.exists
           (fun part -> part = "Greedy,")
           (String.split_on_char ' ' msg)));
  match Core.Experiments.run_benchmark ~name:"x" ~seed:1 ~algorithms:[] g with
  | _ -> Alcotest.fail "empty algorithm list accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          quick "map_array order" test_map_array_order;
          quick "map_list order" test_map_list_order;
          quick "parallel_for" test_parallel_for;
          quick "fanout" test_fanout;
          quick "exception propagation" test_exception_propagation;
          quick "nested pool creation rejected" test_nested_create_rejected;
          quick "nested combinators degrade" test_nested_map_degrades;
          quick "sequential fallback" test_sequential_fallback;
          quick "create validation" test_create_invalid;
          quick "shutdown" test_shutdown;
          quick "HETSCHED_DOMAINS parsing" test_domains_from_env;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest diff_grid;
          QCheck_alcotest.to_alcotest diff_repeat_search;
          QCheck_alcotest.to_alcotest diff_frontier;
          quick "six paper benchmarks" test_paper_benchmarks_differential;
          quick "batch generation" test_batch_differential;
          quick "repeat_search on general DFGs" test_repeat_search_on_benchmarks;
        ] );
      ( "validation",
        [ quick "run_benchmark requires Greedy" test_missing_greedy_rejected ] );
    ]
