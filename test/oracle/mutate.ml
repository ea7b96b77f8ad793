let with_start (s : Sched.Schedule.t) v start =
  let starts = Array.copy s.start in
  starts.(v) <- start;
  { s with Sched.Schedule.start = starts }

let bump_start table (s : Sched.Schedule.t) ~deadline =
  if Array.length s.start = 0 then None
  else begin
    let latest = ref 0 in
    Array.iteri
      (fun v _ ->
        if Sched.Schedule.finish table s v > Sched.Schedule.finish table s !latest
        then latest := v)
      s.start;
    let v = !latest in
    let time = Fulib.Table.time table ~node:v ~ftype:s.assignment.(v) in
    let start = max (deadline - time + 1) (s.start.(v) + 1) in
    Some
      ( Printf.sprintf "node %d start %d -> %d (finish %d > T=%d)" v s.start.(v)
          start (start + time) deadline,
        with_start s v start )
  end

let swap_type table a =
  let n = Array.length a and k = Fulib.Table.num_types table in
  let found = ref None in
  for v = n - 1 downto 0 do
    for t = k - 1 downto 0 do
      if
        t <> a.(v)
        && Fulib.Table.cost table ~node:v ~ftype:t
           <> Fulib.Table.cost table ~node:v ~ftype:a.(v)
      then found := Some (v, t)
    done
  done;
  match !found with
  | None -> None
  | Some (v, t) ->
      let a' = Array.copy a in
      a'.(v) <- t;
      Some (Printf.sprintf "node %d type %d -> %d" v a.(v) t, a')

let swap_level table ~mapping a =
  let n = Array.length a in
  let found = ref None in
  for v = n - 1 downto 0 do
    List.iter
      (fun e ->
        if
          e <> a.(v)
          && Fulib.Table.cost table ~node:v ~ftype:e
             <> Fulib.Table.cost table ~node:v ~ftype:a.(v)
        then found := Some (v, e))
      (Fulib.Dvfs.siblings mapping a.(v))
  done;
  match !found with
  | None -> None
  | Some (v, e) ->
      let a' = Array.copy a in
      a'.(v) <- e;
      Some
        ( Printf.sprintf "node %d level %d -> %d (same base type %d)" v a.(v) e
            mapping.Fulib.Dvfs.base.(e),
          a' )

let out_of_range_type table a =
  if Array.length a = 0 then None
  else begin
    let a' = Array.copy a in
    a'.(0) <- Fulib.Table.num_types table;
    Some (Printf.sprintf "node 0 type %d -> %d (out of range)" a.(0) a'.(0), a')
  end

let shrink_config table s ~config =
  let peak = Check.Config.peak table s in
  let found = ref None in
  for t = Array.length config - 1 downto 0 do
    if config.(t) > 0 && config.(t) - 1 < peak.(t) then found := Some t
  done;
  match !found with
  | None -> None
  | Some t ->
      let c = Array.copy config in
      c.(t) <- c.(t) - 1;
      Some
        ( Printf.sprintf "type %d slots %d -> %d (peak use %d)" t config.(t)
            c.(t) peak.(t),
          c )

let shrink_mem_capacity g table a =
  let k = Fulib.Table.num_types table in
  let loads = Assign.Assignment.mem_loads g table a in
  (* the most-loaded type, deterministically (lowest index on ties) *)
  let worst = ref 0 in
  for t = 1 to k - 1 do
    if loads.(t) > loads.(!worst) then worst := t
  done;
  if loads.(!worst) = 0 then None
  else begin
    let t = !worst in
    let caps = Array.copy (Fulib.Table.mem_capacities table) in
    caps.(t) <- loads.(t) - 1;
    Some
      ( Printf.sprintf "type %d capacity -> %d (load %d)" t caps.(t) loads.(t),
        Fulib.Table.with_mem_capacity table caps )
  end

let break_precedence g table (s : Sched.Schedule.t) =
  let edge =
    List.find_opt (fun e -> e.Dfg.Graph.delay = 0) (Dfg.Graph.edges g)
  in
  match edge with
  | None -> None
  | Some { Dfg.Graph.src; dst; _ } ->
      (* times are >= 1, so finish src - 1 is a valid (non-negative) start
         strictly inside the producer's execution interval *)
      let start = Sched.Schedule.finish table s src - 1 in
      Some
        ( Printf.sprintf "node %d start %d -> %d (producer %d finishes at %d)"
            dst s.start.(dst) start src (start + 1),
          with_start s dst start )

let break_delay g table (s : Sched.Schedule.t) ~period =
  let edge =
    List.find_opt (fun e -> e.Dfg.Graph.delay > 0) (Dfg.Graph.edges g)
  in
  match edge with
  | None -> None
  | Some { Dfg.Graph.src; dst; delay; _ } ->
      let fin = Sched.Schedule.finish table s src in
      let early = fin - (delay * period) - 1 in
      if early >= 0 then
        Some
          ( Printf.sprintf
              "node %d start %d -> %d (breaks %d-delay edge at period %d)" dst
              s.start.(dst) early delay period,
            with_start s dst early )
      else begin
        (* the consumer cannot move early enough; push the producer late *)
        let time = Fulib.Table.time table ~node:src ~ftype:s.assignment.(src) in
        let late =
          max (s.start.(dst) + (delay * period) + 1 - time) (s.start.(src) + 1)
        in
        Some
          ( Printf.sprintf
              "node %d start %d -> %d (breaks %d-delay edge at period %d)" src
              s.start.(src) late delay period,
            with_start s src late )
      end
