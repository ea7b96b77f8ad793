(* The prefix DP of [Path_Assign] (paper §5.1), kept as a
   differential-testing oracle. [Path_Assign] itself runs as
   [Assign.Tree_assign] on {!chain}: on the reversed chain
   v_(n-1) -> ... -> v_0, node v_i's one child is v_(i-1), so the tree DP's
   row for v_i is the prefix DP's row X_i, and the traceback from the root
   v_(n-1) at the full budget is the prefix DP's walk back. Its
   [solve_with_cost] must return bit-identical results, and its
   [dp_row ~node:(n - 1)] must equal the last row of [dp_reference]. *)

(* The reversed chain over [table]'s nodes. It carries no data sizes, so
   no memory mask applies. *)
let chain table =
  let n = Fulib.Table.num_nodes table in
  Dfg.Graph.of_edges
    ~names:(Array.init n (Printf.sprintf "v%d"))
    (List.init (max 0 (n - 1)) (fun i ->
         { Dfg.Graph.src = i + 1; dst = i; delay = 0; size = 0 }))

let infeasible = max_int

let dp_reference table ~deadline =
  let n = Fulib.Table.num_nodes table in
  let k = Fulib.Table.num_types table in
  let prev = Array.make (deadline + 1) 0 in
  let choice = Array.make_matrix n (deadline + 1) (-1) in
  let row = Array.make (deadline + 1) infeasible in
  let rows = Array.make n [||] in
  for i = 0 to n - 1 do
    Array.fill row 0 (deadline + 1) infeasible;
    for j = 0 to deadline do
      for t = 0 to k - 1 do
        let dt = Fulib.Table.time table ~node:i ~ftype:t in
        if j - dt >= 0 && prev.(j - dt) <> infeasible then begin
          let c = prev.(j - dt) + Fulib.Table.cost table ~node:i ~ftype:t in
          if c < row.(j) then begin
            row.(j) <- c;
            choice.(i).(j) <- t
          end
        end
      done
    done;
    rows.(i) <- Array.copy row;
    Array.blit row 0 prev 0 (deadline + 1)
  done;
  (rows, choice)

let solve_of_dp dp table ~deadline =
  if deadline < 0 then None
  else begin
    let n = Fulib.Table.num_nodes table in
    if n = 0 then Some ([||], 0)
    else begin
      let rows, choice = dp table ~deadline in
      if rows.(n - 1).(deadline) = infeasible then None
      else begin
        let a = Array.make n 0 in
        (* Walk back from the full budget: node i was chosen at the budget
           left after its suffix; subtract its time to find node i-1's. *)
        let budget = ref deadline in
        for i = n - 1 downto 0 do
          let t = choice.(i).(!budget) in
          a.(i) <- t;
          budget := !budget - Fulib.Table.time table ~node:i ~ftype:t
        done;
        Some (a, rows.(n - 1).(deadline))
      end
    end
  end

let solve_with_cost_reference table ~deadline =
  solve_of_dp dp_reference table ~deadline
