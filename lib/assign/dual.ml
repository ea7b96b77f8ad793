(* The smallest deadline in [lo..hi] whose optimal cost is within
   [budget], with its witness; [solve] must be a primal optimiser whose
   cost is non-increasing in the deadline. [None] if even [hi] busts the
   budget. *)
let via_binary_search ~solve ~lo ~hi ~budget =
  if lo > hi then None
  else begin
    let within deadline =
      match solve ~deadline with
      | Some (a, cost) when cost <= budget -> Some a
      | Some _ | None -> None
    in
    match within hi with
    | None -> None
    | Some witness ->
        let rec search lo hi best_deadline best =
          (* Invariant: [hi] is feasible with witness [best]. *)
          if lo >= hi then (best_deadline, best)
          else
            let mid = lo + ((hi - lo) / 2) in
            match within mid with
            | Some a -> search lo mid mid a
            | None -> search (mid + 1) hi best_deadline best
        in
        Some (search lo hi hi witness)
  end

let for_tree g table ~budget =
  let lo = Assignment.min_makespan g table in
  let hi =
    Dfg.Paths.longest_path g ~weight:(fun v ->
        let k = Fulib.Table.num_types table in
        let rec worst t acc =
          if t >= k then acc
          else worst (t + 1) (max acc (Fulib.Table.time table ~node:v ~ftype:t))
        in
        worst 0 1)
  in
  via_binary_search
    ~solve:(fun ~deadline -> Tree_assign.solve_auto g table ~deadline)
    ~lo ~hi ~budget

let infeasible = max_int

let path_dp table ~budget =
  let n = Fulib.Table.num_nodes table in
  let k = Fulib.Table.num_types table in
  if budget < 0 then None
  else if n = 0 then Some (0, [||])
  else begin
    let prev = Array.make (budget + 1) 0 in
    let row = Array.make (budget + 1) infeasible in
    let choice = Array.make_matrix n (budget + 1) (-1) in
    for i = 0 to n - 1 do
      Array.fill row 0 (budget + 1) infeasible;
      for c = 0 to budget do
        for t = 0 to k - 1 do
          let dc = Fulib.Table.cost table ~node:i ~ftype:t in
          if c - dc >= 0 && prev.(c - dc) <> infeasible then begin
            let total = prev.(c - dc) + Fulib.Table.time table ~node:i ~ftype:t in
            if total < row.(c) then begin
              row.(c) <- total;
              choice.(i).(c) <- t
            end
          end
        done
      done;
      Array.blit row 0 prev 0 (budget + 1)
    done;
    if prev.(budget) = infeasible then None
    else begin
      let a = Array.make n 0 in
      let c = ref budget in
      for i = n - 1 downto 0 do
        let t = choice.(i).(!c) in
        a.(i) <- t;
        c := !c - Fulib.Table.cost table ~node:i ~ftype:t
      done;
      Some (prev.(budget), a)
    end
  end
