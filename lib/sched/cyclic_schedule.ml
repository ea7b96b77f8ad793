let node_time table s v =
  Fulib.Table.time table ~node:v ~ftype:s.Schedule.assignment.(v)

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

let min_period g table s =
  let dependence_bound =
    List.fold_left
      (fun acc { Dfg.Graph.src; dst; delay; _ } ->
        if delay = 0 then begin
          if
            s.Schedule.start.(src) + node_time table s src
            > s.Schedule.start.(dst)
          then
            invalid_arg "Cyclic_schedule.min_period: schedule breaks precedence";
          acc
        end
        else
          let gap =
            s.Schedule.start.(src) + node_time table s src
            - s.Schedule.start.(dst)
          in
          max acc (ceil_div gap delay))
      1 (Dfg.Graph.edges g)
  in
  (* resource bound: the steady state executes one iteration's work per
     period on the same instances the schedule's peak usage provides *)
  let config = Schedule.peak_usage table s in
  let k = Fulib.Table.num_types table in
  let work = Array.make k 0 in
  Array.iteri
    (fun v t -> work.(t) <- work.(t) + node_time table s v)
    s.Schedule.assignment;
  let resource_bound = ref 1 in
  for t = 0 to k - 1 do
    if work.(t) > 0 then
      resource_bound := max !resource_bound (ceil_div work.(t) config.(t))
  done;
  max dependence_bound !resource_bound

type sim_result = {
  ok : bool;
  finish_time : int;
  utilisation : float array;
  throughput : float;
}

let simulate g table s ~period ~iterations =
  if iterations < 1 then invalid_arg "Cyclic_schedule.simulate: iterations < 1";
  if period < 1 then invalid_arg "Cyclic_schedule.simulate: period < 1";
  let n = Dfg.Graph.num_nodes g in
  let start i v = (i * period) + s.Schedule.start.(v) in
  let finish i v = start i v + node_time table s v in
  (* check every dependence of every simulated iteration concretely *)
  let ok = ref true in
  for i = 0 to iterations - 1 do
    List.iter
      (fun { Dfg.Graph.src; dst; delay; _ } ->
        let producer_iteration = i - delay in
        if producer_iteration >= 0 && finish producer_iteration src > start i dst
        then ok := false)
      (Dfg.Graph.edges g)
  done;
  let finish_time =
    let rec worst v acc =
      if v < 0 then acc else worst (v - 1) (max acc (finish (iterations - 1) v))
    in
    worst (n - 1) 0
  in
  let k = Fulib.Table.num_types table in
  let config = Schedule.peak_usage table s in
  let busy = Array.make k 0 in
  Array.iteri
    (fun v t -> busy.(t) <- busy.(t) + (node_time table s v * iterations))
    s.Schedule.assignment;
  let span = max finish_time 1 in
  let utilisation =
    Array.init k (fun t ->
        if config.(t) = 0 then 0.0
        else float_of_int busy.(t) /. float_of_int (config.(t) * span))
  in
  {
    ok = !ok;
    finish_time;
    utilisation;
    throughput = float_of_int iterations /. float_of_int span;
  }
