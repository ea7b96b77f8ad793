open Helpers

(* Preorder numbering puts every parent below its children, which also
   rules out a cycle. *)
let tree_is_forest (t : Dfg.Expand.tree) =
  let ok = ref true in
  Array.iteri (fun i p -> if p < -1 || p >= i then ok := false) t.parent;
  !ok

let size (t : Dfg.Expand.tree) = Array.length t.origin

let test_tree_unchanged () =
  let g = graph 5 [ (0, 1); (0, 2); (1, 3); (1, 4) ] in
  let t = Dfg.Expand.expand g in
  Alcotest.(check int) "same size" 5 (size t);
  Alcotest.(check (list int)) "no duplicates" [] (Dfg.Expand.duplicated_nodes t);
  Alcotest.(check bool) "still a tree" true (tree_is_forest t)

let test_diamond_duplicates_join () =
  let g = diamond () in
  let t = Dfg.Expand.expand g in
  Alcotest.(check int) "5 tree nodes" 5 (size t);
  Alcotest.(check (list int)) "join duplicated" [ 3 ] (Dfg.Expand.duplicated_nodes t);
  Alcotest.(check int) "two copies" 2 (Dfg.Expand.copy_count t 3);
  Alcotest.(check bool) "result is a tree" true (tree_is_forest t)

let test_origin_and_copies_consistent () =
  let g = diamond () in
  let t = Dfg.Expand.expand g in
  Array.iteri
    (fun tree_node orig ->
      Alcotest.(check bool)
        "copies lists its tree node" true
        (List.mem tree_node t.Dfg.Expand.copies.(orig)))
    t.Dfg.Expand.origin;
  (* every tree edge is a zero-delay edge between the copies' originals *)
  Array.iteri
    (fun tree_node p ->
      if p >= 0 then
        Alcotest.(check bool)
          "tree edge maps to a graph edge" true
          (List.mem t.Dfg.Expand.origin.(tree_node)
             (Dfg.Graph.dag_succs g t.Dfg.Expand.origin.(p))))
    t.Dfg.Expand.parent

let sorted_path_names g path = List.map (Dfg.Graph.name g) path

let test_all_critical_paths_preserved () =
  (* two stacked diamonds: every original critical path must appear in the
     expanded tree, as a path with the same node names *)
  let g =
    graph 7 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6) ]
  in
  let tg = Oracle.Expand.tree_graph g (Dfg.Expand.expand g) in
  let original =
    List.sort_uniq compare
      (List.map (sorted_path_names g) (Dfg.Paths.critical_paths g))
  in
  let expanded =
    List.sort_uniq compare
      (List.map (sorted_path_names tg) (Dfg.Paths.critical_paths tg))
  in
  Alcotest.(check (list (list string))) "same critical paths" original expanded

let test_tree_size_equals_path_to_node_counts () =
  let g =
    graph 7 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4); (3, 5); (4, 6); (5, 6) ]
  in
  let t = Dfg.Expand.expand g in
  (* one copy per distinct root-to-node path *)
  let expected =
    let n = Dfg.Graph.num_nodes g in
    let counts = Array.make n 0 in
    List.iter
      (fun v ->
        let c =
          match Dfg.Graph.dag_preds g v with
          | [] -> 1
          | ps -> List.fold_left (fun acc p -> acc + counts.(p)) 0 ps
        in
        counts.(v) <- c)
      (Dfg.Topo.sort g);
    Array.fold_left ( + ) 0 counts
  in
  Alcotest.(check int) "tree size" expected (size t)

let test_multi_root () =
  let g = graph 3 [ (0, 2); (1, 2) ] in
  let t = Dfg.Expand.expand g in
  let roots p =
    Array.fold_left (fun acc q -> if q < 0 then acc + 1 else acc) 0 p
  in
  Alcotest.(check int) "4 nodes" 4 (size t);
  Alcotest.(check int) "2 roots" 2 (roots t.Dfg.Expand.parent)

let test_delay_edges_dropped () =
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 1) ] in
  let t = Dfg.Expand.expand g in
  Alcotest.(check int) "3 nodes" 3 (size t);
  Alcotest.(check int) "only zero-delay edges" 2
    (Array.fold_left (fun acc p -> if p >= 0 then acc + 1 else acc) 0
       t.Dfg.Expand.parent)

let test_too_large () =
  (* 12 stacked diamonds -> 2^13 - ... paths; cap at 100 nodes *)
  let d = 12 in
  let edges =
    List.concat
      (List.init d (fun i ->
           let base = 3 * i in
           [ (base, base + 1); (base, base + 2); (base + 1, base + 3); (base + 2, base + 3) ]))
  in
  let g = graph ((3 * d) + 1) edges in
  Alcotest.check_raises "raises Too_large" (Dfg.Expand.Too_large 100)
    (fun () -> ignore (Dfg.Expand.expand ~max_nodes:100 g))

let test_empty () =
  let t = Dfg.Expand.expand (graph 0 []) in
  Alcotest.(check int) "empty" 0 (size t)

(* --- Flat DFS and identity topo vs the list-based oracles -------------- *)

(* A random DAG or tree, or the transpose of one, with random edge sizes
   and, half the time, delayed edges in any direction. Half the graphs are
   relabelled by a random permutation, so their ids are not topologically
   numbered; transposes never are (unless edgeless). *)
let random_graph rng =
  let module P = Workloads.Prng in
  let n = 1 + P.int rng 14 in
  let dag () =
    Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(P.int rng (n + 1))
  in
  let tree () = Workloads.Random_dfg.random_tree rng ~n ~max_children:3 in
  let base =
    match P.int rng 4 with
    | 0 -> dag ()
    | 1 -> tree ()
    | 2 -> Oracle.Transpose.transpose (dag ())
    | _ -> Oracle.Transpose.transpose (tree ())
  in
  let perm = Array.init n Fun.id in
  if P.bool rng then
    for i = n - 1 downto 1 do
      let j = P.int rng (i + 1) in
      let t = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- t
    done;
  let names = Array.make n "" and ops = Array.make n "" in
  for v = 0 to n - 1 do
    names.(perm.(v)) <- Dfg.Graph.name base v;
    ops.(perm.(v)) <- Dfg.Graph.op base v
  done;
  let edges =
    List.map
      (fun (e : Dfg.Graph.edge) ->
        { e with src = perm.(e.src); dst = perm.(e.dst); size = P.int rng 4 })
      (Dfg.Graph.edges base)
  in
  let delayed =
    if P.bool rng then []
    else
      List.init (P.int rng 4) (fun _ ->
          {
            Dfg.Graph.src = P.int rng n;
            dst = P.int rng n;
            delay = 1 + P.int rng 2;
            size = P.int rng 3;
          })
  in
  Dfg.Graph.of_edges ~names ~ops (edges @ delayed)

let ids_numbered g =
  List.for_all
    (fun (e : Dfg.Graph.edge) -> e.delay > 0 || e.src < e.dst)
    (Dfg.Graph.edges g)

let same_tree (a : Dfg.Expand.tree) (b : Dfg.Expand.tree) =
  a.parent = b.parent && a.origin = b.origin && a.copies = b.copies

let outcome f =
  match f () with t -> Ok t | exception Dfg.Expand.Too_large m -> Error m

(* Both expansions agree with the default bound and at one below, at, and
   one above the tree's size, forward and transposed (the flat walk over
   [g]'s predecessors against the list-based expansion of the transposed
   graph); the input graph's order and the reference tree's, as a graph,
   match the heap oracle. *)
let expand_matches_oracle =
  QCheck.Test.make ~name:"flat expand and identity topo = list/heap oracles"
    ~count:500
    (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int))
    (fun seed ->
      let g = random_graph (Workloads.Prng.create seed) in
      let reference = Oracle.Expand.expand_reference g in
      let rg = Oracle.Expand.tree_graph g reference in
      let agrees expand source =
        let size = size (Oracle.Expand.expand_reference source) in
        List.for_all
          (fun max_nodes ->
            match
              ( outcome (fun () -> expand ?max_nodes g),
                outcome (fun () ->
                    Oracle.Expand.expand_reference ?max_nodes source) )
            with
            | Ok a, Ok b -> same_tree a b
            | Error m, Error m' -> m = m'
            | _ -> false)
          [ None; Some (size - 1); Some size; Some (size + 1) ]
      in
      Dfg.Graph.topo_arr g = Oracle.Topo.topo_reference g
      && Dfg.Graph.topo_arr rg = Oracle.Topo.topo_reference rg
      && agrees (fun ?max_nodes g -> Dfg.Expand.expand ?max_nodes g) g
      && agrees
           (fun ?max_nodes g -> Dfg.Expand.expand_transposed ?max_nodes g)
           (Oracle.Transpose.transpose g))

(* The random graphs above cover both kinds of numbering. *)
let test_numbering_coverage () =
  let numbered = ref 0 and unnumbered = ref 0 in
  for seed = 0 to 199 do
    let g = random_graph (Workloads.Prng.create seed) in
    if ids_numbered g then incr numbered else incr unnumbered;
    Alcotest.(check (array int))
      (Printf.sprintf "seed %d topo = heap oracle" seed)
      (Oracle.Topo.topo_reference g) (Dfg.Graph.topo_arr g)
  done;
  Alcotest.(check bool) "some graphs are topologically numbered" true
    (!numbered > 20);
  Alcotest.(check bool) "some graphs are not" true (!unnumbered > 20)

let () =
  Alcotest.run "dfg.expand"
    [
      ( "expand",
        [
          quick "tree passes through" test_tree_unchanged;
          quick "diamond join duplicated" test_diamond_duplicates_join;
          quick "origin/copies consistent" test_origin_and_copies_consistent;
          quick "critical paths preserved" test_all_critical_paths_preserved;
          quick "size = number of root paths" test_tree_size_equals_path_to_node_counts;
          quick "multiple roots" test_multi_root;
          quick "delay edges dropped" test_delay_edges_dropped;
          quick "max_nodes cap" test_too_large;
          quick "empty graph" test_empty;
        ] );
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest expand_matches_oracle;
          quick "numbered and unnumbered ids covered" test_numbering_coverage;
        ] );
    ]
