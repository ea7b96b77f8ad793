open Helpers

let is_topological g order =
  let pos = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace pos v i) order;
  List.for_all
    (fun v ->
      List.for_all
        (fun w -> Hashtbl.find pos v < Hashtbl.find pos w)
        (Dfg.Graph.dag_succs g v))
    order

let test_sort_diamond () =
  let g = diamond () in
  let order = Array.to_list (Dfg.Graph.topo_arr g) in
  Alcotest.(check int) "covers all nodes" 4 (List.length order);
  Alcotest.(check bool) "is topological" true (is_topological g order);
  Alcotest.(check (list int)) "deterministic" [ 0; 1; 2; 3 ] order

(* Walked backwards, the order lists every node after its zero-delay
   children: the post-order the children-first sweeps read. *)
let test_post_order_reverses_dependencies () =
  let g = diamond () in
  let post_order = List.rev (Array.to_list (Dfg.Graph.topo_arr g)) in
  Alcotest.(check bool)
    "children before parents" true
    (is_topological g (List.rev post_order))

let test_sort_ignores_delay_edges () =
  let g = graph_with_delays 3 [ (0, 1, 0); (1, 2, 0); (2, 0, 1) ] in
  Alcotest.(check (array int)) "linear order" [| 0; 1; 2 |] (Dfg.Graph.topo_arr g)

let test_longest_path_unit_weights () =
  let g = diamond () in
  Alcotest.(check int) "diamond depth" 3 (Dfg.Paths.longest_path g ~weight:(fun _ -> 1));
  let p = path_graph 5 in
  Alcotest.(check int) "path depth" 5 (Dfg.Paths.longest_path p ~weight:(fun _ -> 1))

let test_longest_path_weighted () =
  let g = diamond () in
  let weight = function 0 -> 2 | 1 -> 10 | 2 -> 1 | 3 -> 3 | _ -> 0 in
  Alcotest.(check int) "takes heavy branch" 15 (Dfg.Paths.longest_path g ~weight)

let test_longest_path_empty () =
  let g = graph 0 [] in
  Alcotest.(check int) "empty graph" 0 (Dfg.Paths.longest_path g ~weight:(fun _ -> 1))

let test_longest_from_to () =
  let g = diamond () in
  let weight _ = 1 in
  Alcotest.(check (array int)) "from" [| 3; 2; 2; 1 |] (Dfg.Paths.longest_from g ~weight);
  Alcotest.(check (array int)) "to" [| 1; 2; 2; 3 |] (Dfg.Paths.longest_to g ~weight)

let test_negative_weight_rejected () =
  let g = path_graph 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Paths: negative weight")
    (fun () -> ignore (Dfg.Paths.longest_path g ~weight:(fun _ -> -1)))

let test_critical_paths_diamond () =
  let g = diamond () in
  let paths = Dfg.Paths.critical_paths g in
  Alcotest.(check int) "two root-to-leaf paths" 2 (List.length paths);
  Alcotest.(check bool)
    "expected paths" true
    (List.mem [ 0; 1; 3 ] paths && List.mem [ 0; 2; 3 ] paths);
  Alcotest.(check int) "count matches" 2 (Dfg.Paths.count_critical_paths g)

let test_critical_paths_multiroot () =
  let g = graph 5 [ (0, 2); (1, 2); (2, 3); (2, 4) ] in
  Alcotest.(check int) "2 roots x 2 leaves" 4 (Dfg.Paths.count_critical_paths g);
  Alcotest.(check int)
    "enumeration agrees" 4
    (List.length (Dfg.Paths.critical_paths g))

let test_count_grows_exponentially () =
  (* chain of d diamonds -> 2^d paths *)
  let d = 10 in
  let n = (3 * d) + 1 in
  let edges =
    List.concat
      (List.init d (fun i ->
           let base = 3 * i in
           [ (base, base + 1); (base, base + 2); (base + 1, base + 3); (base + 2, base + 3) ]))
  in
  let g = graph n edges in
  Alcotest.(check int) "2^10 paths" 1024 (Dfg.Paths.count_critical_paths g)

let test_transpose_involutive () =
  let g = graph_with_delays 4 [ (0, 1, 0); (0, 2, 2); (1, 3, 0); (2, 3, 1) ] in
  let gt = Oracle.Transpose.transpose g in
  Alcotest.(check (list int)) "roots become leaves" (Array.to_list (Dfg.Graph.leaves_arr g)) (Dfg.Graph.roots gt);
  let back = Oracle.Transpose.transpose gt in
  let edges gr =
    List.sort compare
      (List.map
         (fun { Dfg.Graph.src; dst; delay; _ } -> (src, dst, delay))
         (Dfg.Graph.edges gr))
  in
  Alcotest.(check (list (triple int int int))) "involution" (edges g) (edges back)

let test_transpose_preserves_longest_path () =
  let g = graph 5 [ (0, 2); (1, 2); (2, 3); (2, 4) ] in
  let weight = function 0 -> 3 | 1 -> 1 | 2 -> 4 | 3 -> 2 | 4 -> 7 | _ -> 0 in
  Alcotest.(check int)
    "orientation invariant"
    (Dfg.Paths.longest_path g ~weight)
    (Dfg.Paths.longest_path (Oracle.Transpose.transpose g) ~weight)

let test_dot_output () =
  let g = graph_with_delays 2 [ (0, 1, 0); (1, 0, 1) ] in
  let dot = Dfg.Dot.to_dot g in
  Alcotest.(check bool) "has digraph" true
    (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  let contains needle =
    let len = String.length needle in
    let rec go i =
      i + len <= String.length dot
      && (String.sub dot i len = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "solid edge" true (contains "n0 -> n1;");
  Alcotest.(check bool) "dashed delayed edge" true (contains "style=dashed");
  let labelled = Dfg.Dot.to_dot ~label:(fun v -> Printf.sprintf "L%d" v) g in
  let contains_l s needle =
    let len = String.length needle in
    let rec go i =
      i + len <= String.length s && (String.sub s i len = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "custom label" true (contains_l labelled "L1")

let test_dot_escaping () =
  (* names, ops and ?label text containing DOT metacharacters must emit
     escaped label attributes, never a raw quote or backslash in them *)
  let names = [| "a\"b"; "back\\slash"; "multi\nline" |] in
  let ops = [| "mul\"op"; "op"; "op" |] in
  let g =
    Dfg.Graph.of_edges ~names ~ops
      [ { Dfg.Graph.src = 0; dst = 2; delay = 0; size = 0 };
        { Dfg.Graph.src = 1; dst = 2; delay = 0; size = 0 } ]
  in
  let dot = Dfg.Dot.to_dot ~label:(fun v -> Printf.sprintf "t=\"%d\"" v) g in
  let contains needle =
    let len = String.length needle in
    let rec go i =
      i + len <= String.length dot
      && (String.sub dot i len = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "quote in name escaped" true (contains "a\\\"b");
  Alcotest.(check bool) "backslash in name escaped" true
    (contains "back\\\\slash");
  Alcotest.(check bool) "newline in name becomes \\n" true
    (contains "multi\\nline");
  Alcotest.(check bool) "quote in op escaped" true (contains "mul\\\"op");
  Alcotest.(check bool) "quote in label text escaped" true
    (contains "t=\\\"0\\\"");
  (* structural sanity: every node line closes its attribute list, and no
     label attribute contains an unescaped quote (quotes are balanced:
     exactly two raw quotes per label once escapes are removed) *)
  let has_label line =
    let needle = "[label=" in
    let len = String.length needle in
    let rec go i =
      i + len <= String.length line
      && (String.sub line i len = needle || go (i + 1))
    in
    go 0
  in
  String.split_on_char '\n' dot
  |> List.iter (fun line ->
         if has_label line then begin
           let raw_quotes = ref 0 in
           String.iteri
             (fun i c ->
               if c = '"' && (i = 0 || line.[i - 1] <> '\\') then
                 incr raw_quotes)
             line;
           Alcotest.(check int)
             ("balanced quotes in: " ^ line)
             2 !raw_quotes
         end)

let () =
  Alcotest.run "dfg.topo_paths"
    [
      ( "topo",
        [
          quick "sort diamond" test_sort_diamond;
          quick "post-order" test_post_order_reverses_dependencies;
          quick "sort ignores delay edges" test_sort_ignores_delay_edges;
        ] );
      ( "paths",
        [
          quick "longest path, unit weights" test_longest_path_unit_weights;
          quick "longest path, weighted" test_longest_path_weighted;
          quick "longest path, empty graph" test_longest_path_empty;
          quick "longest from/to" test_longest_from_to;
          quick "negative weight rejected" test_negative_weight_rejected;
          quick "critical paths of diamond" test_critical_paths_diamond;
          quick "multi-root critical paths" test_critical_paths_multiroot;
          quick "path count explodes safely" test_count_grows_exponentially;
        ] );
      ( "transpose/dot",
        [
          quick "transpose involutive" test_transpose_involutive;
          quick "transpose keeps longest path" test_transpose_preserves_longest_path;
          quick "dot export" test_dot_output;
          quick "dot label escaping" test_dot_escaping;
        ] );
    ]
