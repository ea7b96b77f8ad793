type tree = {
  parent : int array;
  origin : int array;
  copies : int list array;
}

exception Too_large of int

let default_max_nodes = 200_000

(* One DFS from [roots] over the adjacency [(off, tgt)] of [g]'s DAG
   portion clones every root's sub-DAG into a tree, numbering copies in
   preorder (children in adjacency order) into flat origin/parent arrays.
   The DAG portion is acyclic, so a DFS path holds each original node at
   most once and the stack of pending (original node, parent copy) entries
   stays within roots + zero-delay edges. *)
let clone ~max_nodes g roots (off, tgt) =
  let n = Graph.num_nodes g in
  let depth = Array.length roots + off.(n) in
  let st_node = Array.make depth 0 and st_par = Array.make depth 0 in
  let sp = ref 0 in
  let push v p =
    st_node.(!sp) <- v;
    st_par.(!sp) <- p;
    incr sp
  in
  for i = Array.length roots - 1 downto 0 do
    push roots.(i) (-1)
  done;
  let cap = ref (Int.max 16 (Int.min max_nodes (2 * n))) in
  let origin = ref (Array.make !cap 0) and parent = ref (Array.make !cap 0) in
  let grow a = Array.append !a (Array.make !cap 0) in
  let m = ref 0 in
  while !sp > 0 do
    decr sp;
    let v = st_node.(!sp) in
    if !m >= max_nodes then raise (Too_large max_nodes);
    if !m = !cap then begin
      origin := grow origin;
      parent := grow parent;
      cap := 2 * !cap
    end;
    !origin.(!m) <- v;
    !parent.(!m) <- st_par.(!sp);
    for e = off.(v + 1) - 1 downto off.(v) do
      push tgt.(e) !m
    done;
    incr m
  done;
  let m = !m in
  let origin = Array.sub !origin 0 m and parent = Array.sub !parent 0 m in
  let copies = Array.make n [] in
  for t = m - 1 downto 0 do
    copies.(origin.(t)) <- t :: copies.(origin.(t))
  done;
  { parent; origin; copies }

let expand ?(max_nodes = default_max_nodes) g =
  clone ~max_nodes g (Graph.roots_arr g) (Graph.csr_succs g)

(* The transpose's edges are [g]'s in source order ([Graph.edges]), so its
   adjacency lists each node's zero-delay predecessors by ascending id.
   [Graph.csr_preds] keeps them in edge-insertion order instead, so they
   are regrouped here by one pass over the successor view. *)
let expand_transposed ?(max_nodes = default_max_nodes) g =
  let n = Graph.num_nodes g in
  let pred_off, _ = Graph.csr_preds g in
  let succ_off, succ_tgt = Graph.csr_succs g in
  let next = Array.sub pred_off 0 n and tgt = Array.make pred_off.(n) 0 in
  for u = 0 to n - 1 do
    for e = succ_off.(u) to succ_off.(u + 1) - 1 do
      let w = succ_tgt.(e) in
      tgt.(next.(w)) <- u;
      next.(w) <- next.(w) + 1
    done
  done;
  clone ~max_nodes g (Graph.leaves_arr g) (pred_off, tgt)

(* A node has one copy per root-to-node path (forward) or per node-to-leaf
   path (transposed: the roots of [Transpose.transpose g] are [g]'s
   leaves). Both counts are one pass over the topological order, forward
   and backward, with sums saturating at [max_nodes + 1] so exponential
   path counts neither overflow nor matter. *)
let tree_sizes ~max_nodes g =
  let cap =
    if max_nodes >= max_int - 1 then max_int else Int.max 1 (max_nodes + 1)
  in
  let add x y =
    let s = x + y in
    if s > cap || s < 0 then cap else s
  in
  let n = Graph.num_nodes g in
  let topo = Graph.topo_arr g in
  (* [paths.(v)] is 1 when [v] has no neighbours in the CSR view
     [(off, tgt)], else the sum of theirs; [visit] orders the topological
     sweep so that neighbours come first. *)
  let count (off, tgt) visit =
    let paths = Array.make n 0 and total = ref 0 in
    for i = 0 to n - 1 do
      let v = topo.(visit i) in
      let c = ref (if off.(v + 1) = off.(v) then 1 else 0) in
      for j = off.(v) to off.(v + 1) - 1 do
        c := add !c paths.(tgt.(j))
      done;
      paths.(v) <- !c;
      total := add !total !c
    done;
    !total
  in
  ( count (Graph.csr_preds g) Fun.id,
    count (Graph.csr_succs g) (fun i -> n - 1 - i) )

let copy_count t v = List.length t.copies.(v)

let duplicated_nodes t =
  let rec collect v acc =
    if v < 0 then acc
    else collect (v - 1) (if copy_count t v > 1 then v :: acc else acc)
  in
  collect (Array.length t.copies - 1) []
