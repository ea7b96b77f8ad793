open Helpers

let test_prng_deterministic () =
  let a = Workloads.Prng.create 42 and b = Workloads.Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Workloads.Prng.int a 1000) (Workloads.Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Workloads.Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Workloads.Prng.int_in rng 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9);
    let f = Workloads.Prng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: non-positive bound")
    (fun () -> ignore (Workloads.Prng.int rng 0))

let test_prng_split_independent () =
  let rng = Workloads.Prng.create 1 in
  let child = Workloads.Prng.split rng in
  let xs = List.init 20 (fun _ -> Workloads.Prng.int rng 1000) in
  let ys = List.init 20 (fun _ -> Workloads.Prng.int child 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_rough_uniformity () =
  let rng = Workloads.Prng.create 9 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let b = Workloads.Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (abs (c - (n / 10)) < n / 20))
    buckets

let check_benchmark_shape name g ~nodes ~tree =
  Alcotest.(check int) (name ^ ": node count") nodes (Dfg.Graph.num_nodes g);
  let is_tree_somehow =
    Dfg.Graph.is_tree g || Dfg.Graph.is_tree (Oracle.Transpose.transpose g)
  in
  Alcotest.(check bool) (name ^ ": tree-ness") tree is_tree_somehow;
  Alcotest.(check bool) (name ^ ": in-tree = tree of the transpose")
    (Dfg.Graph.is_tree (Oracle.Transpose.transpose g))
    (Dfg.Graph.is_in_tree g)

let test_benchmark_shapes () =
  check_benchmark_shape "lattice4" (Workloads.Filters.lattice ~stages:4) ~nodes:17 ~tree:true;
  check_benchmark_shape "lattice8" (Workloads.Filters.lattice ~stages:8) ~nodes:33 ~tree:true;
  check_benchmark_shape "volterra" (Workloads.Filters.volterra ()) ~nodes:27 ~tree:true;
  check_benchmark_shape "diffeq" (Workloads.Filters.diffeq ()) ~nodes:11 ~tree:false;
  check_benchmark_shape "rls" (Workloads.Filters.rls_laguerre ()) ~nodes:18 ~tree:false;
  check_benchmark_shape "elliptic" (Workloads.Filters.elliptic ()) ~nodes:34 ~tree:false

let test_elliptic_operation_mix () =
  let g = Workloads.Filters.elliptic () in
  let count op =
    let n = ref 0 in
    for v = 0 to Dfg.Graph.num_nodes g - 1 do
      if Dfg.Graph.op g v = op then incr n
    done;
    !n
  in
  Alcotest.(check int) "26 additions" 26 (count "add");
  Alcotest.(check int) "8 multiplications" 8 (count "mul")

let test_elliptic_duplicated_nodes () =
  let g = Workloads.Filters.elliptic () in
  let _, tree = Assign.Dfg_assign.choose_tree g in
  Alcotest.(check int) "9 duplicated nodes (as the paper reports)" 9
    (List.length (Dfg.Expand.duplicated_nodes tree))

let test_benchmarks_have_feedback_delays () =
  List.iter
    (fun (name, g) ->
      let has_delay =
        List.exists (fun { Dfg.Graph.delay; _ } -> delay > 0) (Dfg.Graph.edges g)
      in
      (* volterra is the only feed-forward benchmark *)
      Alcotest.(check bool)
        (name ^ " feedback")
        (name <> "volterra")
        has_delay)
    (Workloads.Filters.all ())

let test_lattice_invalid () =
  Alcotest.check_raises "0 stages" (Invalid_argument "Filters.lattice: stages < 1")
    (fun () -> ignore (Workloads.Filters.lattice ~stages:0))

let test_random_tree_is_tree () =
  let rng = Workloads.Prng.create 3 in
  for _ = 1 to 20 do
    let n = 1 + Workloads.Prng.int rng 40 in
    let g = Workloads.Random_dfg.random_tree rng ~n ~max_children:3 in
    Alcotest.(check int) "size" n (Dfg.Graph.num_nodes g);
    Alcotest.(check bool) "is tree" true (Dfg.Graph.is_tree g);
    List.iter
      (fun v ->
        Alcotest.(check bool) "child cap" true (Dfg.Graph.dag_out_degree g v <= 3))
      (List.init n (fun i -> i))
  done

let test_random_dag_connected_and_acyclic () =
  let rng = Workloads.Prng.create 4 in
  for _ = 1 to 20 do
    let n = 2 + Workloads.Prng.int rng 30 in
    let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:5 in
    (* acyclicity enforced by the graph constructor; single root component:
       every node except 0 has a parent *)
    for v = 1 to n - 1 do
      Alcotest.(check bool) "has parent" true (Dfg.Graph.dag_in_degree g v >= 1)
    done
  done

let test_random_layered_shape () =
  let rng = Workloads.Prng.create 5 in
  let g = Workloads.Random_dfg.random_layered rng ~layers:4 ~width:3 ~edge_prob:0.4 in
  Alcotest.(check int) "12 nodes" 12 (Dfg.Graph.num_nodes g);
  (* every non-final-layer node reaches the next layer *)
  for v = 0 to (3 * 3) - 1 do
    Alcotest.(check bool) "has successor" true (Dfg.Graph.dag_out_degree g v >= 1)
  done

let test_tradeoff_tables_monotone () =
  let rng = Workloads.Prng.create 6 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:30 in
  for v = 0 to 29 do
    for t = 1 to 2 do
      Alcotest.(check bool) "times increase" true
        (Fulib.Table.time tbl ~node:v ~ftype:t > Fulib.Table.time tbl ~node:v ~ftype:(t - 1));
      Alcotest.(check bool) "costs decrease" true
        (Fulib.Table.cost tbl ~node:v ~ftype:t < Fulib.Table.cost tbl ~node:v ~ftype:(t - 1))
    done
  done

let test_for_graph_muls_slower () =
  (* multiplications start no faster than the fastest addition base: check
     statistically that the mul base range [2,4] dominates the add range
     [1,2] on the fastest type *)
  let g = Workloads.Filters.elliptic () in
  let rng = Workloads.Prng.create 8 in
  let tbl = Workloads.Tables.for_graph rng ~library:lib3 g in
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    let t0 = Fulib.Table.time tbl ~node:v ~ftype:0 in
    match Dfg.Graph.op g v with
    | "mul" -> Alcotest.(check bool) "mul base >= 2" true (t0 >= 2 && t0 <= 4)
    | _ -> Alcotest.(check bool) "add base <= 2" true (t0 >= 1 && t0 <= 2)
  done

let test_arbitrary_tables_in_range () =
  let rng = Workloads.Prng.create 10 in
  let tbl =
    Workloads.Tables.random_arbitrary rng ~library:lib2 ~num_nodes:20 ~max_time:5 ~max_cost:9
  in
  for v = 0 to 19 do
    for t = 0 to 1 do
      let time = Fulib.Table.time tbl ~node:v ~ftype:t in
      let cost = Fulib.Table.cost tbl ~node:v ~ftype:t in
      Alcotest.(check bool) "time in [1,5]" true (time >= 1 && time <= 5);
      Alcotest.(check bool) "cost in [0,9]" true (cost >= 0 && cost <= 9)
    done
  done

(* --- the resident catalogue --------------------------------------------- *)

let fresh_instance name ~seed =
  let g = List.assoc name (Workloads.Filters.extended ()) in
  (g, Workloads.Tables.for_graph (Workloads.Prng.create seed) ~library:lib3 g)

let same_graph a b =
  Dfg.Graph.num_nodes a = Dfg.Graph.num_nodes b
  && Dfg.Graph.edges a = Dfg.Graph.edges b
  && List.for_all
       (fun v ->
         Dfg.Graph.name a v = Dfg.Graph.name b v
         && Dfg.Graph.op a v = Dfg.Graph.op b v)
       (List.init (Dfg.Graph.num_nodes a) Fun.id)

let same_table a b =
  let n = Fulib.Table.num_nodes a and k = Fulib.Table.num_types a in
  n = Fulib.Table.num_nodes b
  && k = Fulib.Table.num_types b
  && Fulib.Table.library a == Fulib.Table.library b
  && List.for_all
       (fun v ->
         List.for_all
           (fun ftype ->
             Fulib.Table.time a ~node:v ~ftype = Fulib.Table.time b ~node:v ~ftype
             && Fulib.Table.cost a ~node:v ~ftype
                = Fulib.Table.cost b ~node:v ~ftype)
           (List.init k Fun.id))
       (List.init n Fun.id)

let lookup_exn name ~seed =
  match Workloads.Catalogue.lookup name ~seed with
  | Some inst -> inst
  | None -> Alcotest.failf "catalogue has no %S" name

let test_catalogue_matches_fresh_build () =
  Alcotest.(check (list string))
    "names in extended order"
    (List.map fst (Workloads.Filters.extended ()))
    (Workloads.Catalogue.names ());
  List.iter
    (fun name ->
      List.iter
        (fun seed ->
          let g, tbl = lookup_exn name ~seed in
          let g', tbl' = fresh_instance name ~seed in
          Alcotest.(check bool) (name ^ ": graph as built") true (same_graph g g');
          Alcotest.(check bool) (name ^ ": table as drawn") true
            (same_table tbl tbl'))
        [ 42; 7; -3 ])
    (Workloads.Catalogue.names ());
  Alcotest.(check bool) "unknown name" true
    (Workloads.Catalogue.lookup "no-such-filter" ~seed:1 = None)

let test_catalogue_resident () =
  let g1, t1 = lookup_exn "elliptic" ~seed:11 in
  let g2, t2 = lookup_exn "elliptic" ~seed:11 in
  let g3, t3 = lookup_exn "elliptic" ~seed:12 in
  Alcotest.(check bool) "graph built once" true (g1 == g2 && g1 == g3);
  Alcotest.(check bool) "table memoized per seed" true (t1 == t2);
  Alcotest.(check bool) "other seed, other table" false (t1 == t3)

let test_catalogue_bounded () =
  let slots = Workloads.Catalogue.table_slots in
  let first = snd (lookup_exn "diffeq" ~seed:100_000) in
  for seed = 100_001 to 100_000 + slots + 10 do
    ignore (lookup_exn "diffeq" ~seed)
  done;
  Alcotest.(check bool) "memo stays bounded" true
    (Workloads.Catalogue.memoized () <= slots);
  (* the oldest entry was evicted; a redraw is a new but equal table *)
  let again = snd (lookup_exn "diffeq" ~seed:100_000) in
  Alcotest.(check bool) "evicted entry redrawn" false (first == again);
  Alcotest.(check bool) "redraw equals the first draw" true (same_table first again)

(* Two domains racing over overlapping (name, seed) pairs, with enough
   distinct seeds to keep the memo evicting: every instance must still
   equal a fresh build. *)
let test_catalogue_concurrent () =
  let names = Array.of_list (Workloads.Catalogue.names ()) in
  let pick i = (names.(i mod Array.length names), 500 + (i mod 97)) in
  Par.Pool.with_pool ~domains:2 (fun pool ->
      let got =
        Par.Pool.map_array pool
          (fun i ->
            let name, seed = pick i in
            lookup_exn name ~seed)
          (Array.init 400 Fun.id)
      in
      Array.iteri
        (fun i (g, tbl) ->
          let name, seed = pick i in
          let g', tbl' = fresh_instance name ~seed in
          if not (same_graph g g' && same_table tbl tbl') then
            Alcotest.failf "lookup %d (%s, seed %d) differs from a fresh build" i
              name seed)
        got)

let () =
  Alcotest.run "workloads"
    [
      ( "catalogue",
        [
          quick "matches a fresh build" test_catalogue_matches_fresh_build;
          quick "resident graphs, memoized tables" test_catalogue_resident;
          quick "bounded table memo" test_catalogue_bounded;
          quick "two domains" test_catalogue_concurrent;
        ] );
      ( "prng",
        [
          quick "deterministic" test_prng_deterministic;
          quick "bounds" test_prng_bounds;
          quick "split" test_prng_split_independent;
          quick "rough uniformity" test_prng_rough_uniformity;
        ] );
      ( "filters",
        [
          quick "benchmark shapes" test_benchmark_shapes;
          quick "elliptic op mix" test_elliptic_operation_mix;
          quick "elliptic duplicated nodes" test_elliptic_duplicated_nodes;
          quick "feedback delays" test_benchmarks_have_feedback_delays;
          quick "lattice validation" test_lattice_invalid;
        ] );
      ( "random graphs",
        [
          quick "random trees" test_random_tree_is_tree;
          quick "random DAGs" test_random_dag_connected_and_acyclic;
          quick "layered DAGs" test_random_layered_shape;
        ] );
      ( "tables",
        [
          quick "tradeoff monotone" test_tradeoff_tables_monotone;
          quick "op-aware bases" test_for_graph_muls_slower;
          quick "arbitrary in range" test_arbitrary_tables_in_range;
        ] );
    ]
