let tradeoff_row rng k ~base_time =
  let time = Array.make k 0 and cost = Array.make k 0 in
  let t = ref base_time in
  for j = 0 to k - 1 do
    time.(j) <- !t;
    t := !t + Prng.int_in rng 1 3
  done;
  let c = ref (Prng.int_in rng 1 5) in
  for j = k - 1 downto 0 do
    cost.(j) <- !c;
    c := !c + Prng.int_in rng 2 8
  done;
  (time, cost)

let build rng ~library ~num_nodes ~base_time_of =
  let k = Fulib.Library.num_types library in
  let rows = Array.init num_nodes (fun v -> tradeoff_row rng k ~base_time:(base_time_of v)) in
  Fulib.Table.make ~library ~time:(Array.map fst rows) ~cost:(Array.map snd rows)

let random_tradeoff rng ~library ~num_nodes =
  build rng ~library ~num_nodes ~base_time_of:(fun _ -> Prng.int_in rng 1 3)

let for_graph rng ~library g =
  build rng ~library ~num_nodes:(Dfg.Graph.num_nodes g) ~base_time_of:(fun v ->
      match Dfg.Graph.op g v with
      | "mul" -> Prng.int_in rng 2 4
      | _ -> Prng.int_in rng 1 2)


let seeded ~seed g =
  for_graph (Prng.create seed) ~library:Fulib.Library.standard3 g

let dvs rng ~levels g =
  if levels < 1 then invalid_arg "Tables.dvs: levels < 1";
  let library =
    Fulib.Library.make (Array.init levels (fun k -> Printf.sprintf "V%d" k))
  in
  let n = Dfg.Graph.num_nodes g in
  let row v =
    let base_time =
      match Dfg.Graph.op g v with
      | "mul" -> Prng.int_in rng 2 4
      | _ -> Prng.int_in rng 1 2
    in
    let base_energy = Prng.int_in rng 20 40 in
    let scale k = 1.0 +. (float_of_int k /. 2.0) in
    ( Array.init levels (fun k ->
          int_of_float (ceil (float_of_int base_time *. scale k))),
      Array.init levels (fun k ->
          max 1
            (int_of_float
               (Float.round (float_of_int base_energy /. (scale k *. scale k))))) )
  in
  let rows = Array.init n row in
  Fulib.Table.make ~library ~time:(Array.map fst rows) ~cost:(Array.map snd rows)

(* --- memory-capacity presets -------------------------------------------- *)

let total_data g =
  let total = ref 0 in
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    total := !total + Dfg.Graph.out_data g v
  done;
  !total

let max_footprint g =
  let worst = ref 0 in
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    if Dfg.Graph.out_data g v > !worst then worst := Dfg.Graph.out_data g v
  done;
  !worst

(* Tight: per-type capacity around an even split of the total data with a
   [slack] multiplier, but never below the largest single footprint — a
   node that fits nowhere would make every instance trivially infeasible
   instead of memory-pressured. *)
let mem_tight ?(slack = 1.25) g table =
  if slack < 1.0 then invalid_arg "Tables.mem_tight: slack < 1.0";
  let k = Fulib.Table.num_types table in
  let cap =
    max (max_footprint g)
      (int_of_float
         (ceil (float_of_int (total_data g) *. slack /. float_of_int k)))
  in
  Fulib.Table.with_mem_capacity table (Array.make k cap)
