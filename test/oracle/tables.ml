(* Test-only tables. *)

(* [random_arbitrary rng ~library ~num_nodes ~max_time ~max_cost] drops
   the monotone structure entirely — any time in [1..max_time], any cost
   in [0..max_cost] — for adversarial property tests. *)
let random_arbitrary rng ~library ~num_nodes ~max_time ~max_cost =
  let k = Fulib.Library.num_types library in
  let row _ =
    ( Array.init k (fun _ -> Workloads.Prng.int_in rng 1 (max 1 max_time)),
      Array.init k (fun _ -> Workloads.Prng.int_in rng 0 (max 0 max_cost)) )
  in
  let rows = Array.init num_nodes row in
  Fulib.Table.make ~library ~time:(Array.map fst rows)
    ~cost:(Array.map snd rows)

(* [mem_loose g table] bounds every type's capacity at the graph's total
   data: the finite-capacity code paths run, yet no assignment can ever
   exceed a capacity — solver results must match the unbounded table
   exactly (the differential tests assert this). *)
let mem_loose g table =
  let total = Array.fold_left ( + ) 0 (Dfg.Graph.out_data_arr g) in
  Fulib.Table.with_mem_capacity table
    (Array.make (Fulib.Table.num_types table) total)

(* [project t ~origin] is the table of an expanded tree: tree node [i]
   gets original node [origin.(i)]'s row, as [Assign.Tree_kernel.of_table]
   projects its flat rows. *)
let project t ~origin =
  let rows cell =
    Array.map
      (fun v ->
        Array.init (Fulib.Table.num_types t) (fun ftype ->
            cell t ~node:v ~ftype))
      origin
  in
  Fulib.Table.make ~library:(Fulib.Table.library t)
    ~time:(rows Fulib.Table.time) ~cost:(rows Fulib.Table.cost)
