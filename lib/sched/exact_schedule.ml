exception Budget_exhausted

let schedule ?(budget = 2_000_000) g table a ~config ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let time v = Fulib.Table.time table ~node:v ~ftype:a.(v) in
  let usable = ref true in
  Array.iter (fun t -> if config.(t) < 1 then usable := false) a;
  if not !usable || deadline < 0 then None
  else begin
    let start = Array.make n (-1) in
    let occupancy = Array.make_matrix k (max deadline 1) 0 in
    let expanded = ref 0 in
    (* earliest start from scheduled predecessors (unscheduled preds
       contribute their own earliest finish, computed on demand) *)
    let rec earliest v =
      if start.(v) >= 0 then start.(v)
      else
        List.fold_left
          (fun acc p ->
            max acc (earliest p + time p))
          0 (Dfg.Graph.dag_preds g v)
    in
    let rec latest v =
      if start.(v) >= 0 then start.(v)
      else
        List.fold_left
          (fun acc s -> min acc (latest s))
          deadline (Dfg.Graph.dag_succs g v)
        - time v
    in
    let free v s =
      let t = a.(v) in
      let rec go i = i >= s + time v || (occupancy.(t).(i) < config.(t) && go (i + 1)) in
      s + time v <= deadline && go s
    in
    let occupy v s delta =
      let t = a.(v) in
      for i = s to s + time v - 1 do
        occupancy.(t).(i) <- occupancy.(t).(i) + delta
      done
    in
    let exception Found in
    let rec branch remaining =
      incr expanded;
      if !expanded > budget then raise Budget_exhausted;
      match remaining with
      | [] -> raise Found
      | _ ->
          (* all windows must stay open *)
          let windows =
            List.map (fun v -> (v, earliest v, latest v)) remaining
          in
          if List.exists (fun (_, e, l) -> e > l) windows then ()
          else begin
            (* branch on the tightest window *)
            let v, e, l =
              List.fold_left
                (fun ((_, _, bl) as best) ((_, _, l) as cand) ->
                  if l < bl then cand else best)
                (List.hd windows) (List.tl windows)
            in
            let rest = List.filter (fun w -> w <> v) remaining in
            for s = e to l do
              if free v s then begin
                start.(v) <- s;
                occupy v s 1;
                branch rest;
                occupy v s (-1);
                start.(v) <- -1
              end
            done
          end
    in
    match branch (List.init n (fun i -> i)) with
    | () -> None
    | exception Found -> Some { Schedule.start = Array.copy start; assignment = Array.copy a }
  end
