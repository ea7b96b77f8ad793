let per_type ?(pipelined = fun _ -> false) ?frames g table a ~deadline =
  let frames =
    match frames with
    | Some f -> Some f
    | None -> Asap_alap.frames g table a ~deadline
  in
  match frames with
  | None -> None
  | Some (asap, alap) ->
      let n = Dfg.Graph.num_nodes g in
      let k = Fulib.Table.num_types table in
      let times = Fulib.Table.flat_times table in
      let pipe = Array.init k pipelined in
      (* A node's forced work in the first [s] steps is
         [clamp (s - alap v) 0 busy]: 0 up to [alap], then +1 per step over
         [(alap, alap + busy]], then flat. Its first difference is a unit
         box, so per type we mark +1/-1 at the box ends in [dp] and
         prefix-sum twice. The last [s] steps are the same with
         [deadline - asap v - busy] in place of [alap v], in [ds]. Rows are
         [t * w + s]; [base] carries a box clipped below step 1. *)
      let w = deadline + 2 in
      let dp = Array.make (k * w) 0 and ds = Array.make (k * w) 0 in
      let base_p = Array.make k 0 and base_s = Array.make k 0 in
      let mark d base t e busy =
        let lo = Int.max 1 (e + 1)
        and hi = Int.min (deadline + 1) (e + busy + 1) in
        if lo < hi then begin
          d.((t * w) + lo) <- d.((t * w) + lo) + 1;
          d.((t * w) + hi) <- d.((t * w) + hi) - 1
        end;
        if e < 0 then base.(t) <- base.(t) + Int.min busy (-e)
      in
      for v = 0 to n - 1 do
        let t = a.(v) in
        let busy = if pipe.(t) then 1 else times.((v * k) + t) in
        mark dp base_p t alap.(v) busy;
        mark ds base_s t (deadline - asap.(v) - busy) busy
      done;
      let bound = Array.make k 0 in
      for t = 0 to k - 1 do
        let slope_p = ref 0 and slope_s = ref 0 in
        let prefix = ref base_p.(t) and suffix = ref base_s.(t) in
        for s = 1 to deadline do
          slope_p := !slope_p + dp.((t * w) + s);
          slope_s := !slope_s + ds.((t * w) + s);
          prefix := !prefix + !slope_p;
          suffix := !suffix + !slope_s;
          let need = (Int.max !prefix !suffix + s - 1) / s in
          if need > bound.(t) then bound.(t) <- need
        done
      done;
      (* A type that appears at all needs at least one instance even when
         deadline slack makes the density bounds vanish. *)
      Array.iter (fun t -> if bound.(t) = 0 then bound.(t) <- 1) a;
      Some bound
