(* Frames are recomputed from scratch after each fixing: [est]/[lst] are
   ASAP/ALAP starts honouring every already-fixed node. Graphs here are a
   few dozen nodes, so clarity wins over incremental updates — but the
   sweeps run over the cached topological order (forwards for [est],
   backwards for [lst]) and the flat time table rather than re-allocating
   lists per pass. *)

let c_frames = Obs.Counter.make "force.frames"
let c_fixings = Obs.Counter.make "force.fixings"

let fixed_frames g table a ~deadline ~fixed =
  Obs.Counter.incr c_frames;
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let time v = times.((v * k) + a.(v)) in
  let est = Array.make n 0 and lst = Array.make n 0 in
  let ok = ref true in
  Array.iter
    (fun v ->
      let ready =
        Dfg.Graph.fold_dag_preds g v ~init:0 ~f:(fun acc p ->
            Int.max acc (est.(p) + time p))
      in
      est.(v) <- (match fixed.(v) with
        | Some s -> if s < ready then (ok := false; ready) else s
        | None -> ready))
    (Dfg.Graph.topo_arr g);
  let topo = Dfg.Graph.topo_arr g in
  for i = n - 1 downto 0 do
    let v = topo.(i) in
    let latest_finish =
      Dfg.Graph.fold_dag_succs g v ~init:deadline ~f:(fun acc s ->
          Int.min acc lst.(s))
    in
    let latest = latest_finish - time v in
    lst.(v) <- (match fixed.(v) with
      | Some s -> if s > latest then (ok := false; latest) else s
      | None -> latest);
    if lst.(v) < est.(v) then ok := false
  done;
  if !ok then Some (est, lst) else None

(* Distribution graphs: dg.(t).(s) = expected number of type-t nodes busy
   in step s, each node's start spread uniformly over its frame. *)
let distribution g table a ~deadline (est, lst) =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let dg = Array.make_matrix k deadline 0.0 in
  for v = 0 to n - 1 do
    let t = times.((v * k) + a.(v)) in
    let width = lst.(v) - est.(v) + 1 in
    let p = 1.0 /. float_of_int width in
    for start = est.(v) to lst.(v) do
      for s = start to Int.min (start + t - 1) (deadline - 1) do
        dg.(a.(v)).(s) <- dg.(a.(v)).(s) +. p
      done
    done
  done;
  dg

let run ?frames g table a ~deadline =
  let n = Dfg.Graph.num_nodes g in
  match Lower_bound.per_type ?frames g table a ~deadline with
  | None -> None
  | Some lower_bound ->
      let fixed = Array.make n None in
      let unscheduled = ref (List.init n (fun i -> i)) in
      let ok = ref true in
      while !unscheduled <> [] && !ok do
        match fixed_frames g table a ~deadline ~fixed with
        | None -> ok := false
        | Some current ->
            let dg = distribution g table a ~deadline current in
            let best = ref None in
            List.iter
              (fun v ->
                let est, lst = current in
                for s = est.(v) to lst.(v) do
                  (* force of fixing v at s = <dg, (new distribution -
                     old distribution)> over all types and steps *)
                  fixed.(v) <- Some s;
                  (match fixed_frames g table a ~deadline ~fixed with
                  | None -> ()
                  | Some restricted ->
                      let dg' = distribution g table a ~deadline restricted in
                      let force = ref 0.0 in
                      for t = 0 to Fulib.Table.num_types table - 1 do
                        for step = 0 to deadline - 1 do
                          force :=
                            !force +. (dg.(t).(step) *. (dg'.(t).(step) -. dg.(t).(step)))
                        done
                      done;
                      match !best with
                      | Some (f, _, _) when f <= !force -> ()
                      | _ -> best := Some (!force, v, s));
                  fixed.(v) <- None
                done)
              !unscheduled;
            (match !best with
            | None -> ok := false
            | Some (_, v, s) ->
                Obs.Counter.incr c_fixings;
                fixed.(v) <- Some s;
                unscheduled := List.filter (fun w -> w <> v) !unscheduled)
      done;
      if not !ok then None
      else begin
        let start =
          Array.map (function Some s -> s | None -> 0) fixed
        in
        let schedule = { Schedule.start; assignment = Array.copy a } in
        if
          Schedule.respects_precedence g table schedule
          && Schedule.meets_deadline table schedule ~deadline
        then
          Some
            {
              Min_resource.schedule;
              config =
                Obs.Span.with_ "phase.config" (fun () ->
                    Schedule.peak_usage table schedule);
              lower_bound;
            }
        else None
      end
