type result = {
  schedule : Schedule.t;
  config : Config.t;
  lower_bound : Config.t;
}

let naive_config table a =
  let counts = Array.make (Fulib.Table.num_types table) 0 in
  Array.iter (fun t -> counts.(t) <- counts.(t) + 1) a;
  counts

let run ?(pipelined = fun _ -> false) ?frames g table a ~deadline =
  let frames =
    match frames with
    | Some f -> Some f
    | None -> Asap_alap.frames g table a ~deadline
  in
  match frames with
  | None -> None
  | Some ((_, alap) as frames) -> (
      match Lower_bound.per_type ~pipelined ~frames g table a ~deadline with
      | None -> None
      | Some lower_bound ->
          let n = Dfg.Graph.num_nodes g in
          let k = Fulib.Table.num_types table in
          let times = Fulib.Table.flat_times table in
          let time v = times.((v * k) + a.(v)) in
          let pipe = Array.init k pipelined in
          let capacity = Array.copy lower_bound in
          let d = Int.max deadline 1 in
          (* occupancy.(t * d + s) = instances of type t busy during step s *)
          let occupancy = Array.make (k * d) 0 in
          let start = Array.make n (-1) in
          let unscheduled_preds = Array.init n (Dfg.Graph.dag_in_degree g) in
          let pred_finish = Array.make n 0 in
          (* Release buckets: [head.(s)] chains, through [next], the nodes
             whose last predecessor finishes at step [s]. A node released
             at or after the deadline never becomes ready. *)
          let head = Array.make d (-1) and next = Array.make n (-1) in
          let release v s =
            if s < deadline then begin
              next.(v) <- head.(s);
              head.(s) <- v
            end
          in
          (* The ready pool [pool.(0 .. !size - 1)], kept in (alap, id)
             order by insertion. *)
          let pool = Array.make n 0 and size = ref 0 in
          let enter v =
            let i = ref !size in
            while
              !i > 0
              &&
              let u = pool.(!i - 1) in
              alap.(v) < alap.(u) || (alap.(v) = alap.(u) && v < u)
            do
              pool.(!i) <- pool.(!i - 1);
              decr i
            done;
            pool.(!i) <- v;
            incr size
          in
          let last_busy v step =
            if pipe.(a.(v)) then step else step + time v - 1
          in
          let free_for v step =
            let row = a.(v) * d and cap = capacity.(a.(v)) in
            let last = last_busy v step in
            let rec go s =
              s > last || (occupancy.(row + s) < cap && go (s + 1))
            in
            go step
          in
          let occupy v step =
            let t = a.(v) in
            start.(v) <- step;
            for s = step to last_busy v step do
              let i = (t * d) + s in
              occupancy.(i) <- occupancy.(i) + 1;
              if occupancy.(i) > capacity.(t) then capacity.(t) <- occupancy.(i)
            done;
            Dfg.Graph.iter_dag_succs g v (fun w ->
                unscheduled_preds.(w) <- unscheduled_preds.(w) - 1;
                pred_finish.(w) <- Int.max pred_finish.(w) (step + time v);
                if unscheduled_preds.(w) = 0 then release w pred_finish.(w))
          in
          for v = 0 to n - 1 do
            if unscheduled_preds.(v) = 0 then release v 0
          done;
          for step = 0 to deadline - 1 do
            let v = ref head.(step) in
            while !v >= 0 do
              enter !v;
              v := next.(!v)
            done;
            (* One pass in (alap, id) order. Deadline-critical nodes (ALAP
               start = now) sort first and start whatever the cost in new
               FU instances; the rest fill remaining capacity, least slack
               first, without growing the configuration. A node started
               now releases its successors at [step + 1] at the earliest,
               so the pool does not change during the pass. *)
            let kept = ref 0 in
            for i = 0 to !size - 1 do
              let v = pool.(i) in
              if alap.(v) = step || free_for v step then occupy v step
              else begin
                pool.(!kept) <- v;
                incr kept
              end
            done;
            size := !kept
          done;
          let schedule = { Schedule.start; assignment = Array.copy a } in
          (* the Min_FU configuration is derived from the finished
             schedule's occupancy, under the trace's sched.config span *)
          let config =
            Obs.Span.with_ "sched.config" (fun () ->
                Schedule.peak_usage ~pipelined table schedule)
          in
          Some { schedule; config; lower_bound })
