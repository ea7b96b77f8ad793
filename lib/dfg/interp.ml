let apply op operands =
  match (op, operands) with
  | _, [] -> 0
  | "add", x :: rest -> List.fold_left ( + ) x rest
  | "sub", x :: rest -> List.fold_left ( - ) x rest
  | "mul", x :: rest -> List.fold_left ( * ) x rest
  | "comp", [ _ ] -> 0
  | "comp", x :: rest -> if x < List.fold_left min max_int rest then 1 else 0
  | _, x :: rest -> List.fold_left ( lxor ) x rest

let run g ~iterations ~input =
  if iterations < 0 then invalid_arg "Interp.run: negative iterations";
  let n = Graph.num_nodes g in
  let out = Array.init n (fun _ -> Array.make iterations 0) in
  let order = Graph.topo_arr g in
  for i = 0 to iterations - 1 do
    Array.iter
      (fun v ->
        let value =
          if Graph.preds g v = [] then input v i
          else
            let operands =
              List.map
                (fun (u, delay) ->
                  let j = i - delay in
                  if j < 0 then 0 (* initial edge values *)
                  else out.(u).(j))
                (Graph.preds g v)
            in
            apply (Graph.op g v) operands
        in
        out.(v).(i) <- value)
      order
  done;
  out
