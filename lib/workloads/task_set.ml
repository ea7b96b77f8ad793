type spec = {
  name : string;
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  period : int;
  deadline : int;
}

(* All-fastest critical path of the DAG portion — the smallest deadline
   any assignment can meet, recomputed here so the generator stays
   independent of the solver stack. *)
let critical_path g table =
  let order = Dfg.Graph.topo_arr g in
  let min_times = Fulib.Table.min_times_arr table in
  let finish = Array.make (Dfg.Graph.num_nodes g) 0 in
  let longest = ref 0 in
  Array.iter
    (fun v ->
      let ready =
        Dfg.Graph.fold_dag_preds g v ~init:0 ~f:(fun acc u ->
            max acc finish.(u))
      in
      finish.(v) <- ready + min_times.(v);
      longest := max !longest finish.(v))
    order;
  max 1 !longest

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let instance rng ~min_nodes ~max_nodes ~library =
  let n = Prng.int_in rng min_nodes max_nodes in
  let extra = Prng.int rng (max 1 (n / 2)) in
  let graph = Random_dfg.random_dag rng ~n ~extra_edges:extra in
  let table = Tables.for_graph rng ~library graph in
  (graph, table)

let random ?(min_nodes = 6) ?(max_nodes = 14)
    ?(library = Fulib.Library.standard3) rng ~tasks =
  if tasks < 0 then
    invalid_arg (Printf.sprintf "Workloads.Task_set: tasks %d < 0" tasks);
  if min_nodes < 1 || max_nodes < min_nodes then
    invalid_arg "Workloads.Task_set: need 1 <= min_nodes <= max_nodes";
  List.init tasks (fun i ->
      let graph, table = instance rng ~min_nodes ~max_nodes ~library in
      let cp = critical_path graph table in
      let period = pow2_at_least cp 1 * (1 lsl Prng.int rng 4) in
      let deadline =
        (* one in eight gets an unconstrained deadline: consecutive jobs
           overlap, forcing the pipelined-heavy admission path *)
        if Prng.int rng 8 = 0 then 2 * period else Prng.int_in rng cp period
      in
      { name = Printf.sprintf "t%d" i; graph; table; period; deadline })
