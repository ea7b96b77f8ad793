(* Robustness: the netlist parser and the public constructors must never
   crash with anything other than their documented exceptions, whatever
   bytes they are fed. *)

let of_seed f =
  (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int), f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let random_bytes rng len =
  String.init len (fun _ -> Char.chr (Workloads.Prng.int rng 256))

(* plausible-looking netlist lines glued together randomly: much better at
   reaching deep parser states than raw bytes *)
let random_netlist rng =
  let words = [| "node"; "edge"; "fu-types"; "delay"; "a"; "b"; "c"; "P1"; "P2";
                 "1/2"; "3"; "-1"; "1/"; "/2"; "#x"; ""; "mul"; "add" |] in
  let line () =
    let n = Workloads.Prng.int rng 6 in
    String.concat " "
      (List.init n (fun _ -> words.(Workloads.Prng.int rng (Array.length words))))
  in
  String.concat "\n" (List.init (Workloads.Prng.int rng 12) (fun _ -> line ()))

let parser_total_on_garbage =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let input = random_bytes rng (Workloads.Prng.int rng 200) in
      match Netlist.of_string input with
      | _ -> true
      | exception Netlist.Parse_error (_, _) -> true
      | exception _ -> false)

let parser_total_on_structured_garbage =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let input = random_netlist rng in
      match Netlist.of_string input with
      | _ -> true
      | exception Netlist.Parse_error (line, msg) ->
          (* errors must carry a plausible line number and a message *)
          line >= 0 && String.length msg > 0
      | exception _ -> false)

let parser_roundtrip_after_successful_parse =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let input = random_netlist rng in
      match Netlist.of_string input with
      | exception Netlist.Parse_error _ -> true
      | g, table -> (
          (* whatever parsed must print and re-parse to the same graph *)
          match Netlist.of_string (Netlist.to_string ?table g) with
          | g', _ -> Dfg.Graph.num_nodes g = Dfg.Graph.num_nodes g'
          | exception _ -> false))

let graph_constructor_total =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = Workloads.Prng.int rng 6 in
      let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
      let edges =
        List.init (Workloads.Prng.int rng 10) (fun _ ->
            {
              Dfg.Graph.src = Workloads.Prng.int rng 8 - 1;
              dst = Workloads.Prng.int rng 8 - 1;
              delay = Workloads.Prng.int rng 4 - 1;
              size = 0;
            })
      in
      match Dfg.Graph.of_edges ~names edges with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

let table_constructor_total =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = Workloads.Prng.int rng 4 in
      let k = 1 + Workloads.Prng.int rng 3 in
      let lib = Fulib.Library.make (Array.init k (fun i -> string_of_int i)) in
      let cells rows cols =
        Array.init rows (fun _ ->
            Array.init cols (fun _ -> Workloads.Prng.int rng 8 - 2))
      in
      let time = cells n (if Workloads.Prng.int rng 2 = 0 then k else k + 1) in
      let cost = cells n k in
      match Fulib.Table.make ~library:lib ~time ~cost with
      | _ -> true
      | exception Invalid_argument _ -> true
      | exception _ -> false)

let () =
  Alcotest.run "fuzz"
    [
      ( "robustness",
        [
          prop "parser total on raw bytes" 300 parser_total_on_garbage;
          prop "parser total on structured garbage" 500 parser_total_on_structured_garbage;
          prop "accepted inputs round-trip" 300 parser_roundtrip_after_successful_parse;
          prop "graph constructor total" 300 graph_constructor_total;
          prop "table constructor total" 300 table_constructor_total;
        ] );
    ]
