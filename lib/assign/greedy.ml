(* Worst critical path through [v] if its execution time became [dt],
   everything else unchanged: only paths through [v] move. [longest_to] and
   [longest_from] each include v's own time, so the current worst path
   through v is to + from - t, and with the new time it is
   to + from - 2t + dt. *)
let path_through into out_of time v dt =
  into.(v) + out_of.(v) - (2 * time v) + dt

let solve g table ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let costs = Fulib.Table.flat_costs table in
  let a = Assignment.all_fastest table in
  if not (Assignment.is_feasible g table a ~deadline) then None
  else begin
    let constrained = Assignment.mem_constrained g table in
    let mem = Dfg.Graph.out_data_arr g in
    let caps = Fulib.Table.mem_capacities table in
    let loads = if constrained then Assignment.mem_loads g table a else [||] in
    let time v = times.((v * k) + a.(v)) in
    (* One naive pass in node order: each node takes its cheapest type that
       keeps the paths through it within the deadline, given the other
       nodes' current types. Early nodes grab the slack first — the
       "simple heuristic [that] may not produce the good result" the paper
       compares against. Under memory constraints the current type is only
       kept as the fallback while its type is within capacity; an
       over-capacity node must move to any fitting type, even a costlier
       one. *)
    for v = 0 to n - 1 do
      let into = Dfg.Paths.longest_to g ~weight:time in
      let out_of = Dfg.Paths.longest_from g ~weight:time in
      let cur = a.(v) in
      let cur_ok = (not constrained) || loads.(cur) <= caps.(cur) in
      let best = ref (if cur_ok then Some cur else None) in
      for t = 0 to k - 1 do
        if t <> cur then begin
          let fits =
            (not constrained) || loads.(t) + mem.(v) <= caps.(t)
          in
          let dt = times.((v * k) + t) in
          if fits && path_through into out_of time v dt <= deadline then
            match !best with
            | Some b when costs.((v * k) + t) >= costs.((v * k) + b) -> ()
            | _ -> best := Some t
        end
      done;
      match !best with
      | Some t when t <> cur ->
          if constrained then begin
            loads.(cur) <- loads.(cur) - mem.(v);
            loads.(t) <- loads.(t) + mem.(v)
          end;
          a.(v) <- t
      | _ -> ()
    done;
    if constrained && not (Assignment.mem_feasible g table a) then None
    else Some a
  end

let solve_iterative g table ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let times = Fulib.Table.flat_times table in
  let costs = Fulib.Table.flat_costs table in
  let a = Assignment.all_fastest table in
  if not (Assignment.is_feasible g table a ~deadline) then None
  else begin
    let constrained = Assignment.mem_constrained g table in
    let mem = Dfg.Graph.out_data_arr g in
    let caps = Fulib.Table.mem_capacities table in
    let loads = if constrained then Assignment.mem_loads g table a else [||] in
    let time v = times.((v * k) + a.(v)) in
    let cost v = costs.((v * k) + a.(v)) in
    let rec improve () =
      let into = Dfg.Paths.longest_to g ~weight:time in
      let out_of = Dfg.Paths.longest_from g ~weight:time in
      (* Best single move by cost reduction per unit of slack consumed; a
         move that is cheaper and no slower wins outright. Moves into an
         over-capacity type are never taken. *)
      let best = ref None in
      for v = 0 to n - 1 do
        for t = 0 to k - 1 do
          if t <> a.(v) then begin
            let fits =
              (not constrained) || loads.(t) + mem.(v) <= caps.(t)
            in
            let dt = times.((v * k) + t) in
            let dc = costs.((v * k) + t) in
            let gain = cost v - dc in
            if
              fits && gain > 0
              && path_through into out_of time v dt <= deadline
            then begin
              let score =
                float_of_int gain /. float_of_int (max 1 (dt - time v))
              in
              match !best with
              | Some (s, _, _) when s >= score -> ()
              | _ -> best := Some (score, v, t)
            end
          end
        done
      done;
      match !best with
      | None -> ()
      | Some (_, v, t) ->
          if constrained then begin
            loads.(a.(v)) <- loads.(a.(v)) - mem.(v);
            loads.(t) <- loads.(t) + mem.(v)
          end;
          a.(v) <- t;
          improve ()
    in
    improve ();
    if constrained && not (Assignment.mem_feasible g table a) then None
    else Some a
  end
