type t = {
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  period : int;
  deadline : int;
}

let make ~period ~deadline graph table =
  if period < 1 then
    invalid_arg (Printf.sprintf "Rt.Task.make: period %d < 1" period);
  if deadline < 1 then
    invalid_arg (Printf.sprintf "Rt.Task.make: deadline %d < 1" deadline);
  if Dfg.Graph.num_nodes graph <> Fulib.Table.num_nodes table then
    invalid_arg "Rt.Task.make: graph/table node count mismatch";
  { graph; table; period; deadline }

type analysed = {
  task : t;
  schedule : Sched.Schedule.t;
  config : Sched.Config.t;
  makespan : int;
  work : int;
  utilization : float;
  min_period : int;
  heavy : bool;
}

let default_heavy_threshold = 1.0

let of_schedule ?(heavy_threshold = default_heavy_threshold) task ~schedule
    ~config =
  let makespan = Sched.Schedule.length task.table schedule in
  let work =
    let acc = ref 0 in
    Array.iteri
      (fun v ftype ->
        acc := !acc + Fulib.Table.time task.table ~node:v ~ftype)
      schedule.Sched.Schedule.assignment;
    !acc
  in
  let utilization = float_of_int work /. float_of_int task.period in
  let min_period =
    Sched.Cyclic_schedule.min_period task.graph task.table schedule
  in
  (* Every admitted task's jobs repeat every [period] steps in the worst
     case, so the schedule must be a legal cyclic schedule at that period
     — this is what carries delay-edge (inter-iteration) dependences. *)
  if min_period > task.period then
    Error (Verdict.Period_overrun { min_period; period = task.period })
  else
    let heavy =
      utilization >= heavy_threshold || task.deadline > task.period
    in
    Ok { task; schedule; config; makespan; work; utilization; min_period; heavy }

let reservation an ~response_time =
  {
    Verdict.heavy = an.heavy;
    config = Array.copy an.config;
    response_time;
    utilization = an.utilization;
  }

let pp_analysed ppf an =
  Format.fprintf ppf
    "%s: period %d, deadline %d, makespan %d, work %d, util %.3f, config %a, \
     min_period %d"
    (if an.heavy then "heavy" else "light")
    an.task.period an.task.deadline an.makespan an.work an.utilization
    Sched.Config.pp an.config an.min_period
