(* The list-based [Tree_Assign] DP (paper §5.2) that [Assign.Tree_kernel]
   replaced, kept as a differential-testing oracle and benchmark baseline:
   [Assign.Tree_assign.solve_with_cost] must return bit-identical results.
   It reads the table through its per-cell accessors and ignores the
   memory model. *)

let infeasible = max_int

let check_tree g =
  if not (Dfg.Graph.is_tree g) then
    invalid_arg "Tree_assign: DAG portion is not a forest"

let dp_reference g table ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let x = Array.make_matrix n (deadline + 1) infeasible in
  let choice = Array.make_matrix n (deadline + 1) (-1) in
  let combined = Array.make (deadline + 1) 0 in
  List.iter
    (fun v ->
      let children = Dfg.Graph.dag_succs g v in
      for j = 0 to deadline do
        let sum =
          List.fold_left
            (fun acc c ->
              if acc = infeasible || x.(c).(j) = infeasible then infeasible
              else acc + x.(c).(j))
            0 children
        in
        combined.(j) <- sum
      done;
      for j = 0 to deadline do
        for t = 0 to k - 1 do
          let dt = Fulib.Table.time table ~node:v ~ftype:t in
          if j - dt >= 0 && combined.(j - dt) <> infeasible then begin
            let c =
              combined.(j - dt) + Fulib.Table.cost table ~node:v ~ftype:t
            in
            if c < x.(v).(j) then begin
              x.(v).(j) <- c;
              choice.(v).(j) <- t
            end
          end
        done
      done)
    (List.rev (Array.to_list (Dfg.Graph.topo_arr g)));
  (x, choice)

let solve_with_cost_reference g table ~deadline =
  check_tree g;
  if deadline < 0 then None
  else begin
    let n = Dfg.Graph.num_nodes g in
    if n = 0 then Some ([||], 0)
    else begin
      let x, choice = dp_reference g table ~deadline in
      let roots = Dfg.Graph.roots g in
      if List.exists (fun r -> x.(r).(deadline) = infeasible) roots then None
      else begin
        let a = Array.make n 0 in
        (* Hand each subtree the budget left under its parent's choice. *)
        let rec assign v budget =
          let t = choice.(v).(budget) in
          a.(v) <- t;
          let remaining = budget - Fulib.Table.time table ~node:v ~ftype:t in
          List.iter (fun c -> assign c remaining) (Dfg.Graph.dag_succs g v)
        in
        List.iter (fun r -> assign r deadline) roots;
        let total =
          List.fold_left (fun acc r -> acc + x.(r).(deadline)) 0 roots
        in
        Some (a, total)
      end
    end
  end
