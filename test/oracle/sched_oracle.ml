(* The phase-2 kernels and the tree choice as they were before the
   linear-time rewrite, kept verbatim as differential-testing oracles:
   [Lower_bound.per_type] (an O(T·n) per-step rescan), [Min_resource.run]
   (two passes over all nodes plus a sorted candidate list per step) and
   [Dfg_assign.choose_tree] (build both orientations' trees, keep the
   smaller). The library versions must agree with these exactly. *)

let clamp x lo hi = max lo (min x hi)

let per_type ?(pipelined = fun _ -> false) ?frames g table a ~deadline =
  let frames =
    match frames with
    | Some f -> Some f
    | None -> Sched.Asap_alap.frames g table a ~deadline
  in
  match frames with
  | None -> None
  | Some (asap, alap) ->
      let n = Dfg.Graph.num_nodes g in
      let k = Fulib.Table.num_types table in
      let times = Fulib.Table.flat_times table in
      let time v = times.((v * k) + a.(v)) in
      (* busy steps an operation forces onto an instance: the issue slot
         only, for pipelined types *)
      let busy v = if pipelined a.(v) then 1 else time v in
      (* forced_prefix.(t).(s) = busy steps of type t forced into steps
         0 .. s-1; forced_suffix the mirror for the last s steps. *)
      let bound = Array.make k 0 in
      for s = 1 to deadline do
        let prefix = Array.make k 0 and suffix = Array.make k 0 in
        for v = 0 to n - 1 do
          let t = a.(v) in
          prefix.(t) <- prefix.(t) + clamp (s - alap.(v)) 0 (busy v);
          suffix.(t) <-
            suffix.(t) + clamp (asap.(v) + busy v - (deadline - s)) 0 (busy v)
        done;
        for t = 0 to k - 1 do
          let need w = (w + s - 1) / s in
          bound.(t) <- max bound.(t) (max (need prefix.(t)) (need suffix.(t)))
        done
      done;
      (* A type that appears at all needs at least one instance even when
         deadline slack makes the density bounds vanish. *)
      Array.iter (fun t -> if bound.(t) = 0 then bound.(t) <- 1) a;
      Some bound

let run ?(pipelined = fun _ -> false) ?frames g table a ~deadline =
  let frames =
    match frames with
    | Some f -> Some f
    | None -> Sched.Asap_alap.frames g table a ~deadline
  in
  match frames with
  | None -> None
  | Some ((_, alap) as frames) -> (
      match per_type ~pipelined ~frames g table a ~deadline with
      | None -> None
      | Some lower_bound ->
          let n = Dfg.Graph.num_nodes g in
          let k = Fulib.Table.num_types table in
          let times = Fulib.Table.flat_times table in
          let time v = times.((v * k) + a.(v)) in
          let capacity = Array.copy lower_bound in
          (* occupancy.(t).(s) = instances of type t busy during step s *)
          let occupancy = Array.make_matrix k (max deadline 1) 0 in
          let start = Array.make n (-1) in
          let unscheduled_preds =
            Array.init n (fun v -> Dfg.Graph.dag_in_degree g v)
          in
          let pred_finish = Array.make n 0 in
          let last_busy v step =
            if pipelined a.(v) then step else step + time v - 1
          in
          let free_for v step =
            let t = a.(v) in
            let rec go s =
              s > last_busy v step
              || (occupancy.(t).(s) < capacity.(t) && go (s + 1))
            in
            go step
          in
          let occupy v step =
            let t = a.(v) in
            start.(v) <- step;
            for s = step to last_busy v step do
              occupancy.(t).(s) <- occupancy.(t).(s) + 1;
              if occupancy.(t).(s) > capacity.(t) then
                capacity.(t) <- occupancy.(t).(s)
            done;
            Dfg.Graph.iter_dag_succs g v (fun w ->
                unscheduled_preds.(w) <- unscheduled_preds.(w) - 1;
                pred_finish.(w) <- max pred_finish.(w) (step + time v))
          in
          let ready step v =
            start.(v) < 0 && unscheduled_preds.(v) = 0 && pred_finish.(v) <= step
          in
          for step = 0 to deadline - 1 do
            (* Deadline-critical nodes first: ALAP start = now, start whatever
               the cost in new FU instances. *)
            for v = 0 to n - 1 do
              if ready step v && alap.(v) = step then occupy v step
            done;
            (* Fill remaining capacity with ready nodes, least slack first,
               without growing the configuration. *)
            let candidates =
              List.filter (ready step)
                (List.init n (fun i -> i))
            in
            let by_slack =
              List.sort (fun v w -> compare (alap.(v), v) (alap.(w), w)) candidates
            in
            List.iter (fun v -> if free_for v step then occupy v step) by_slack
          done;
          let schedule = { Sched.Schedule.start; assignment = Array.copy a } in
          (* the Min_FU configuration is derived from the finished
             schedule's occupancy — this is the trace's "config" phase *)
          let config =
            Obs.Span.with_ "phase.config" (fun () ->
                Sched.Schedule.peak_usage ~pipelined table schedule)
          in
          Some { Sched.Min_resource.schedule; config; lower_bound })

let expand_oriented ?max_nodes orientation g =
  match orientation with
  | Assign.Dfg_assign.Forward -> Dfg.Expand.expand ?max_nodes g
  | Transposed -> Dfg.Expand.expand ?max_nodes (Dfg.Transpose.transpose g)

let choose_tree ?max_nodes g =
  let forward = expand_oriented ?max_nodes Forward g in
  let transposed = expand_oriented ?max_nodes Transposed g in
  if
    Array.length forward.Dfg.Expand.origin
    <= Array.length transposed.Dfg.Expand.origin
  then (Assign.Dfg_assign.Forward, forward)
  else (Assign.Dfg_assign.Transposed, transposed)
