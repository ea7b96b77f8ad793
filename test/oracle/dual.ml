(* [path_dp table ~budget] — direct DP for a simple path (nodes in index
   order): [Y_i(c)] = minimum total execution time of the prefix with cost
   at most [c]. Returns the minimum makespan and an assignment. The
   independent cross-check of [Assign.Dual.for_tree]. *)

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
