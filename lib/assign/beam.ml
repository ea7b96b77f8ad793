let c_expansions = Obs.Counter.make "beam.expansions"

let solve ?(width = 16) g table ~deadline =
  if width < 1 then invalid_arg "Beam.solve: width < 1";
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let order = Dfg.Graph.topo_arr g in
  let min_cost_suffix = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    min_cost_suffix.(i) <-
      min_cost_suffix.(i + 1) + Fulib.Table.min_cost table order.(i)
  done;
  if n = 0 then Some ([||], 0)
  else if Assignment.min_makespan g table > deadline then None
  else begin
    let constrained = Assignment.mem_constrained g table in
    let mem = Dfg.Graph.out_data_arr g in
    let caps = Fulib.Table.mem_capacities table in
    let assigned = Array.make n false in
    (* optimistic makespan: assigned nodes use their chosen times, the rest
       their fastest *)
    let feasible a =
      let time v =
        if assigned.(v) then Fulib.Table.time table ~node:v ~ftype:a.(v)
        else Fulib.Table.min_time table v
      in
      Dfg.Paths.longest_path g ~weight:time <= deadline
    in
    let rec take j = function
      | [] -> []
      | _ when j = width -> []
      | x :: rest -> x :: take (j + 1) rest
    in
    let rec step i beam =
      if i = n then beam
      else begin
        let v = order.(i) in
        assigned.(v) <- true;
        let candidates =
          List.concat_map
            (fun (cost, a, loads) ->
              List.filter_map
                (fun t ->
                  (* residual-memory cut: skip candidates that would push
                     type [t] over capacity *)
                  if constrained && loads.(t) + mem.(v) > caps.(t) then None
                  else begin
                    let a' = Array.copy a in
                    a'.(v) <- t;
                    if feasible a' then begin
                      let loads' =
                        if constrained then begin
                          let l = Array.copy loads in
                          l.(t) <- l.(t) + mem.(v);
                          l
                        end
                        else loads
                      in
                      Some
                        ( cost + Fulib.Table.cost table ~node:v ~ftype:t,
                          a',
                          loads' )
                    end
                    else None
                  end)
                (List.init k (fun t -> t)))
            beam
        in
        Obs.Counter.add c_expansions (List.length candidates);
        let ranked =
          (* the admissible suffix estimate is a constant offset within one
             level, so ranking by cost alone is equivalent; keep the
             explicit bound for clarity *)
          List.sort
            (fun (c, _, _) (c', _, _) ->
              compare
                (c + min_cost_suffix.(i + 1))
                (c' + min_cost_suffix.(i + 1)))
            candidates
        in
        step (i + 1) (take 0 ranked)
      end
    in
    match step 0 [ (0, Array.make n 0, Array.make k 0) ] with
    | [] -> None
    | (cost, a, _) :: _ -> Some (a, cost)
  end
