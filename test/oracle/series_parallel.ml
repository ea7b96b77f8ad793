type expr =
  | Node of int
  | Series of expr list
  | Parallel of expr list

let empty = Series []

(* Smart constructors keep expressions flat so tests and printing stay
   readable; semantics are unaffected. *)
let series a b =
  match (a, b) with
  | Series [], e | e, Series [] -> e
  | Series xs, Series ys -> Series (xs @ ys)
  | Series xs, e -> Series (xs @ [ e ])
  | e, Series ys -> Series (e :: ys)
  | e, e' -> Series [ e; e' ]

let parallel a b =
  match (a, b) with
  | Parallel xs, Parallel ys -> Parallel (xs @ ys)
  | Parallel xs, e -> Parallel (xs @ [ e ])
  | e, Parallel ys -> Parallel (e :: ys)
  | e, e' -> Parallel [ e; e' ]

(* --- Recognition by two-terminal reduction --------------------------- *)

(* Vertices of the split multigraph: node v becomes in-vertex 2v and
   out-vertex 2v+1 joined by an edge labelled [Node v]; virtual source and
   sink close the terminals. Edges live in mutable per-vertex lists. *)
let decompose g =
  let n = Dfg.Graph.num_nodes g in
  if n = 0 then Some empty
  else begin
    let source = 2 * n and sink = (2 * n) + 1 in
    let m = (2 * n) + 2 in
    let outs = Array.make m [] and ins = Array.make m [] in
    let add_edge u w e =
      outs.(u) <- (w, e) :: outs.(u);
      ins.(w) <- (u, e) :: ins.(w)
    in
    for v = 0 to n - 1 do
      add_edge (2 * v) ((2 * v) + 1) (Node v)
    done;
    List.iter (fun r -> add_edge source (2 * r) empty) (Dfg.Graph.roots g);
    Array.iter (fun l -> add_edge ((2 * l) + 1) sink empty) (Dfg.Graph.leaves_arr g);
    for v = 0 to n - 1 do
      List.iter (fun w -> add_edge ((2 * v) + 1) (2 * w) empty) (Dfg.Graph.dag_succs g v)
    done;
    let remove_out u w =
      let rec drop = function
        | [] -> []
        | (w', e) :: rest when w' = w -> ignore e; rest
        | x :: rest -> x :: drop rest
      in
      outs.(u) <- drop outs.(u)
    in
    let remove_in w u =
      let rec drop = function
        | [] -> []
        | (u', e) :: rest when u' = u -> ignore e; rest
        | x :: rest -> x :: drop rest
      in
      ins.(w) <- drop ins.(w)
    in
    (* Merge all parallel edges out of [u]; returns true when it merged. *)
    let parallel_merge u =
      let by_dst = Hashtbl.create 8 in
      List.iter
        (fun (w, e) ->
          Hashtbl.replace by_dst w (e :: (try Hashtbl.find by_dst w with Not_found -> [])))
        outs.(u);
      let merged = ref false in
      Hashtbl.iter
        (fun w es ->
          match es with
          | [] | [ _ ] -> ()
          | first :: rest ->
              merged := true;
              let combined = List.fold_left parallel first rest in
              (* remove all copies, insert the combined edge *)
              outs.(u) <- List.filter (fun (w', _) -> w' <> w) outs.(u);
              ins.(w) <- List.filter (fun (u', _) -> u' <> u) ins.(w);
              outs.(u) <- (w, combined) :: outs.(u);
              ins.(w) <- (u, combined) :: ins.(w))
        by_dst;
      !merged
    in
    (* Series-reduce vertex [x] if it has exactly one in and one out edge. *)
    let series_reduce x =
      if x = source || x = sink then false
      else
        match (ins.(x), outs.(x)) with
        | [ (u, e1) ], [ (w, e2) ] when u <> x && w <> x ->
            remove_out u x;
            remove_in x u;
            remove_out x w;
            remove_in w x;
            let combined = series e1 e2 in
            outs.(u) <- (w, combined) :: outs.(u);
            ins.(w) <- (u, combined) :: ins.(w);
            ignore (parallel_merge u);
            true
        | _ -> false
    in
    let rec fixpoint () =
      let changed = ref false in
      for u = 0 to m - 1 do
        if parallel_merge u then changed := true
      done;
      for x = 0 to m - 1 do
        if series_reduce x then changed := true
      done;
      if !changed then fixpoint ()
    in
    fixpoint ();
    match outs.(source) with
    | [ (w, e) ] when w = sink ->
        let leftover = ref false in
        for u = 0 to m - 1 do
          if u <> source && outs.(u) <> [] then leftover := true
        done;
        if !leftover then None else Some e
    | _ -> None
  end

let is_series_parallel g = decompose g <> None

(* --- DP over the expression ------------------------------------------ *)

let infeasible = max_int

(* Evaluate an expression to (dp array, reconstruct) where dp.(j) is the
   minimum cost with path time <= j and [reconstruct j] writes the choices
   of a witness within budget j into the assignment array. *)
let rec eval table ~deadline assignment = function
  | Node v ->
      let k = Fulib.Table.num_types table in
      let dp = Array.make (deadline + 1) infeasible in
      let choice = Array.make (deadline + 1) (-1) in
      for j = 0 to deadline do
        for t = 0 to k - 1 do
          if Fulib.Table.time table ~node:v ~ftype:t <= j then begin
            let c = Fulib.Table.cost table ~node:v ~ftype:t in
            if c < dp.(j) then begin
              dp.(j) <- c;
              choice.(j) <- t
            end
          end
        done
      done;
      (dp, fun j -> assignment.(v) <- choice.(j))
  | Parallel es ->
      let parts = List.map (eval table ~deadline assignment) es in
      let dp = Array.make (deadline + 1) 0 in
      for j = 0 to deadline do
        dp.(j) <-
          List.fold_left
            (fun acc (part, _) ->
              if acc = infeasible || part.(j) = infeasible then infeasible
              else acc + part.(j))
            0 parts
      done;
      (dp, fun j -> List.iter (fun (_, rebuild) -> rebuild j) parts)
  | Series es ->
      let zero = Array.make (deadline + 1) 0 in
      List.fold_left
        (fun (acc, rebuild_acc) e ->
          let part, rebuild_part = eval table ~deadline assignment e in
          let dp = Array.make (deadline + 1) infeasible in
          let split = Array.make (deadline + 1) (-1) in
          for j = 0 to deadline do
            for j1 = 0 to j do
              if acc.(j1) <> infeasible && part.(j - j1) <> infeasible then begin
                let c = acc.(j1) + part.(j - j1) in
                if c < dp.(j) then begin
                  dp.(j) <- c;
                  split.(j) <- j1
                end
              end
            done
          done;
          let rebuild j =
            let j1 = split.(j) in
            rebuild_acc j1;
            rebuild_part (j - j1)
          in
          (dp, rebuild))
        (zero, fun _ -> ())
        es

let solve_expr expr table ~deadline =
  if deadline < 0 then None
  else begin
    let assignment = Array.make (Fulib.Table.num_nodes table) 0 in
    let dp, rebuild = eval table ~deadline assignment expr in
    if dp.(deadline) = infeasible then None
    else begin
      rebuild deadline;
      Some (assignment, dp.(deadline))
    end
  end

let solve g table ~deadline =
  match decompose g with
  | None -> invalid_arg "Series_parallel.solve: graph is not series-parallel"
  | Some expr -> solve_expr expr table ~deadline

(* --- Realisation ------------------------------------------------------ *)

let to_graph ~names expr =
  let edges = ref [] in
  (* returns (roots, leaves) of the realised sub-graph *)
  let rec realise = function
    | Node v -> ([ v ], [ v ])
    | Parallel es ->
        let parts = List.map realise es in
        (List.concat_map fst parts, List.concat_map snd parts)
    | Series es -> (
        let parts = List.filter_map
            (fun e ->
              match realise e with [], [] -> None | rl -> Some rl)
            es
        in
        match parts with
        | [] -> ([], [])
        | first :: rest ->
            let rec chain (roots, leaves) = function
              | [] -> (roots, leaves)
              | (r2, l2) :: tl ->
                  List.iter
                    (fun l ->
                      List.iter
                        (fun r -> edges := { Dfg.Graph.src = l; dst = r; delay = 0; size = 0 } :: !edges)
                        r2)
                    leaves;
                  chain (roots, l2) tl
            in
            chain first rest)
  in
  let (_ : int list * int list) = realise expr in
  Dfg.Graph.of_edges ~names !edges
