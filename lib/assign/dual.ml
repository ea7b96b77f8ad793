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
