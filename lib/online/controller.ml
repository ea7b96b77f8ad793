let c_perturbs = Obs.Counter.make "online.perturbs"
let c_resolves = Obs.Counter.make "online.resolves"
let c_scratch = Obs.Counter.make "online.scratch_resolves"
let c_at_risk = Obs.Counter.make "online.at_risk"

type outcome = {
  assignment : Assign.Assignment.t;
  cost : int;
  schedule : Sched.Schedule.t;
  config : Sched.Config.t;
}

type t = {
  g : Dfg.Graph.t;
  deadline : int;
  k : int;
  library : Fulib.Library.t;
  costs : int array array;  (* fixed: energy is not a measurement *)
  times : int array array;  (* drifted by set_times/scale_node *)
  session : Assign.Dfg_assign.Repeat_session.t;
  mutable table : Fulib.Table.t;
  mutable table_fresh : bool;  (* [table] mirrors [times] *)
  mutable session_synced : bool;  (* the session was retimed to [table] *)
  mutable current : outcome option;
}

let rows f table =
  Array.init (Fulib.Table.num_nodes table) (fun v ->
      Array.init (Fulib.Table.num_types table) (fun ty ->
          f table ~node:v ~ftype:ty))

let sync_table t =
  if not t.table_fresh then begin
    t.table <- Fulib.Table.make ~library:t.library ~time:t.times ~cost:t.costs;
    t.table_fresh <- true
  end

let schedule_on t table a =
  match Sched.Min_resource.run t.g table a ~deadline:t.deadline with
  | None -> None
  | Some mr ->
      Some
        {
          assignment = a;
          cost = Assign.Assignment.total_cost table a;
          schedule = mr.Sched.Min_resource.schedule;
          config = mr.Sched.Min_resource.config;
        }

let resolve t =
  Obs.Counter.incr c_resolves;
  sync_table t;
  if not t.session_synced then begin
    Assign.Dfg_assign.Repeat_session.retime t.session t.table;
    t.session_synced <- true
  end;
  match Assign.Dfg_assign.Repeat_session.resolve t.session with
  | None -> None
  | Some a -> (
      match schedule_on t t.table a with
      | None -> None
      | Some o ->
          t.current <- Some o;
          Some o)

let create ?max_nodes g table ~deadline =
  if deadline < 0 then invalid_arg "Controller.create: negative deadline";
  let t =
    {
      g;
      deadline;
      k = Fulib.Table.num_types table;
      library = Fulib.Table.library table;
      costs = rows Fulib.Table.cost table;
      times = rows Fulib.Table.time table;
      session = Assign.Dfg_assign.Repeat_session.create ?max_nodes g table ~deadline;
      table;
      table_fresh = true;
      session_synced = true;
      current = None;
    }
  in
  ignore (resolve t);
  t

let current t = t.current

let set_times t ~node row =
  if Array.length row <> t.k then
    invalid_arg "Controller.set_times: row width mismatch";
  Array.iter
    (fun x ->
      if x < 1 then invalid_arg "Controller.set_times: time < 1";
      if x > Fulib.Table.max_cell then
        invalid_arg
          (Printf.sprintf "Controller.set_times: time > %d" Fulib.Table.max_cell))
    row;
  Obs.Counter.incr c_perturbs;
  t.times.(node) <- Array.copy row;
  t.table_fresh <- false;
  t.session_synced <- false

let scale_node t ~node ~pct =
  if pct < 1 then invalid_arg "Controller.scale_node: pct must be >= 1";
  set_times t ~node
    (Array.map
       (fun x -> min Fulib.Table.max_cell (max 1 (((x * pct) + 99) / 100)))
       t.times.(node))

let at_risk t =
  match t.current with
  | None -> true
  | Some o ->
      sync_table t;
      let sim =
        Sched.Cyclic_schedule.simulate t.g t.table o.schedule
          ~period:(max 1 t.deadline) ~iterations:1
      in
      let risky =
        (not sim.Sched.Cyclic_schedule.ok)
        || sim.Sched.Cyclic_schedule.finish_time > t.deadline
      in
      if risky then Obs.Counter.incr c_at_risk;
      risky

let resolve_scratch t =
  Obs.Counter.incr c_scratch;
  sync_table t;
  match Assign.Dfg_assign.repeat t.g t.table ~deadline:t.deadline with
  | None -> None
  | Some a -> schedule_on t t.table a
