(* Tests for the functional DFG interpreter and the semantic equivalence of
   graph transformations. *)

open Helpers

(* [equivalent_unfolding g ~factor ~iterations ~input] checks the exact
   copy-indexing equality of unfolding (copy [j] of node [v] at iteration
   [i] is [v] at iteration [i * factor + j]), feeding the unfolded graph's
   copy [j] of source [v] from [input v (i * factor + j)]. *)
let equivalent_unfolding g ~factor ~iterations ~input =
  let unfolded = Dfg.Unfold.unfold g ~factor in
  let original = Dfg.Interp.run g ~iterations:(iterations * factor) ~input in
  let copy_input id i =
    (* copy j of source v at super-iteration i is iteration i*f + j *)
    input (id / factor) ((i * factor) + (id mod factor))
  in
  let streams = Dfg.Interp.run unfolded ~iterations ~input:copy_input in
  let ok = ref true in
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    for j = 0 to factor - 1 do
      for i = 0 to iterations - 1 do
        if streams.((v * factor) + j).(i) <> original.(v).((i * factor) + j)
        then ok := false
      done
    done
  done;
  !ok

let test_op_semantics () =
  (* v2 = v0 + v1 via a join *)
  let g = graph ~ops:[| "add"; "add"; "add" |] 3 [ (0, 2); (1, 2) ] in
  let input v i = if v = 0 then i else 10 * i in
  let out = Dfg.Interp.run g ~iterations:4 ~input in
  Alcotest.(check (array int)) "sum stream" [| 0; 11; 22; 33 |] out.(2);
  let g = graph ~ops:[| "add"; "add"; "sub" |] 3 [ (0, 2); (1, 2) ] in
  let out = Dfg.Interp.run g ~iterations:3 ~input in
  Alcotest.(check (array int)) "difference" [| 0; -9; -18 |] out.(2);
  let g = graph ~ops:[| "add"; "add"; "mul" |] 3 [ (0, 2); (1, 2) ] in
  let out = Dfg.Interp.run g ~iterations:3 ~input in
  Alcotest.(check (array int)) "product" [| 0; 10; 40 |] out.(2);
  let g = graph ~ops:[| "add"; "add"; "comp" |] 3 [ (0, 2); (1, 2) ] in
  let out = Dfg.Interp.run g ~iterations:3 ~input in
  Alcotest.(check (array int)) "comparison" [| 0; 1; 1 |] out.(2)

let test_delays_read_past_iterations () =
  (* accumulator: v1 = v0 + v1[previous]; classic running sum *)
  let g =
    graph_with_delays ~ops:[| "add"; "add" |] 2 [ (0, 1, 0); (1, 1, 1) ]
  in
  let out = Dfg.Interp.run g ~iterations:5 ~input:(fun _ i -> i + 1) in
  Alcotest.(check (array int)) "running sum" [| 1; 3; 6; 10; 15 |] out.(1)

let test_initial_values_are_zero () =
  (* v1 reads v0 two iterations back *)
  let g = graph_with_delays ~ops:[| "add"; "add" |] 2 [ (0, 1, 2) ] in
  let out = Dfg.Interp.run g ~iterations:4 ~input:(fun _ i -> i + 7) in
  Alcotest.(check (array int)) "two-step delay" [| 0; 0; 7; 8 |] out.(1)

let test_unfolding_preserves_streams () =
  let input v i = (v * 31) + i in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun factor ->
          Alcotest.(check bool)
            (Printf.sprintf "%s x%d" name factor)
            true
            (equivalent_unfolding g ~factor ~iterations:6 ~input))
        [ 1; 2; 3 ])
    (Workloads.Filters.all ())

let test_unfolding_equivalence_on_random_graphs () =
  let rng = Workloads.Prng.create 101 in
  for trial = 1 to 20 do
    let n = 2 + Workloads.Prng.int rng 8 in
    let base = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:2 in
    (* sprinkle delayed edges *)
    let edges =
      Dfg.Graph.edges base
      @ List.init (Workloads.Prng.int rng 3) (fun _ ->
            {
              Dfg.Graph.src = Workloads.Prng.int rng n;
              dst = Workloads.Prng.int rng n;
              delay = 1 + Workloads.Prng.int rng 2;
              size = 0;
            })
    in
    let edges =
      List.filter
        (fun { Dfg.Graph.src; dst; delay; _ } -> not (src = dst && delay = 0))
        edges
    in
    let g =
      Dfg.Graph.of_edges ~names:(Dfg.Graph.names base)
        ~ops:(Array.init n (fun v -> Dfg.Graph.op base v))
        edges
    in
    let factor = 2 + Workloads.Prng.int rng 2 in
    Alcotest.(check bool)
      (Printf.sprintf "trial %d (factor %d)" trial factor)
      true
      (equivalent_unfolding g ~factor ~iterations:5
         ~input:(fun v i -> (v * 17) + (3 * i)))
  done

let test_pipelining_retiming_shifts_streams () =
  (* a feed-forward chain pipelined by min_cycle_period: node v with
     cumulative lag r(v) >= 0 produces, from iteration r(v) onward, the
     original stream delayed by r(v) (zero prologue) *)
  let g = graph ~ops:[| "add"; "add"; "add" |] 3 [ (0, 1); (1, 2) ] in
  let time _ = 2 in
  let period, r = Dfg.Cyclic.min_cycle_period g ~time in
  Alcotest.(check int) "fully pipelined" 2 period;
  let retimed = Dfg.Cyclic.apply g r in
  let input _ i = (5 * i) + 1 in
  let iterations = 10 in
  let original = Dfg.Interp.run g ~iterations ~input in
  let shifted = Dfg.Interp.run retimed ~iterations ~input in
  (* FEAS lags grow downstream: retimed node v produces the original
     stream delayed by r(v) - r(source); sources keep lag 0 *)
  Alcotest.(check int) "source not lagged" 0 r.(0);
  for v = 0 to 2 do
    let lag = r.(v) in
    Alcotest.(check bool) (Printf.sprintf "lag of v%d non-negative" v) true (lag >= 0);
    for i = lag to iterations - 1 do
      Alcotest.(check int)
        (Printf.sprintf "v%d at %d" v i)
        original.(v).(i - lag)
        shifted.(v).(i)
    done
  done

let test_negative_iterations_rejected () =
  let g = path_graph 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Interp.run: negative iterations")
    (fun () -> ignore (Dfg.Interp.run g ~iterations:(-1) ~input:(fun _ _ -> 0)))

let () =
  Alcotest.run "dfg.interp"
    [
      ( "semantics",
        [
          quick "operation semantics" test_op_semantics;
          quick "delays read the past" test_delays_read_past_iterations;
          quick "zero initial values" test_initial_values_are_zero;
          quick "negative iterations" test_negative_iterations_rejected;
        ] );
      ( "transformations",
        [
          quick "unfolding exact on benchmarks" test_unfolding_preserves_streams;
          quick "unfolding exact on random graphs" test_unfolding_equivalence_on_random_graphs;
          quick "pipelining shifts streams" test_pipelining_retiming_shifts_streams;
        ] );
    ]
