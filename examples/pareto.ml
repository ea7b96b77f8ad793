(* Design-space exploration: trace the full cost/deadline Pareto frontier
   of a benchmark with the optimal tree DP and with the Repeat heuristic,
   print both staircases, and emit the heuristic one as CSV — the file a
   plotting script would consume.

   Run with: dune exec examples/pareto.exe [benchmark] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "volterra" in
  let graph =
    match List.assoc_opt name (Workloads.Filters.extended ()) with
    | Some g -> g
    | None ->
        Printf.eprintf "unknown benchmark %S\n" name;
        exit 2
  in
  let rng = Workloads.Prng.create 2026 in
  let table = Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 graph in
  let tmin = Core.Synthesis.min_deadline graph table in
  let max_deadline = tmin * 2 in
  Printf.printf "%s: %d nodes, deadlines %d..%d\n\n" name
    (Dfg.Graph.num_nodes graph) tmin max_deadline;
  let heuristic = Core.Frontier.trace graph table ~max_deadline in
  Printf.printf "Repeat frontier (%d points):\n%s\n" (List.length heuristic)
    (Core.Frontier.to_string heuristic);
  (if Dfg.Graph.is_tree graph || Dfg.Graph.is_in_tree graph
   then begin
     let optimal =
       Core.Frontier.trace ~algorithm:Core.Synthesis.Tree graph table ~max_deadline
     in
     Printf.printf "Optimal (Tree_Assign) frontier (%d points):\n%s\n"
       (List.length optimal)
       (Core.Frontier.to_string optimal)
   end);
  print_endline "CSV of the Repeat frontier:";
  print_string (Core.Csv.of_frontier heuristic)
