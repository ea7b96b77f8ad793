type tree = {
  graph : Graph.t;
  origin : int array;
  copies : int list array;
}

exception Too_large of int

let default_max_nodes = 200_000

(* One DFS over [g]'s DAG portion clones every root's sub-DAG into a tree,
   numbering copies in preorder (children in adjacency order) into flat
   origin/parent/size arrays. The DAG portion is acyclic, so a DFS path
   holds each original node at most once and the stack of pending
   (original node, parent copy, edge size) entries stays within
   roots + zero-delay edges. *)
let expand ?(max_nodes = default_max_nodes) g =
  let n = Graph.num_nodes g in
  let off, tgt = Graph.csr_succs g in
  let sizes = Graph.csr_succ_sizes g in
  let roots = Graph.roots_arr g in
  let depth = Array.length roots + off.(n) in
  let st_node = Array.make depth 0 and st_par = Array.make depth 0 in
  let st_size = Array.make depth 0 in
  let sp = ref 0 in
  let push v p s =
    st_node.(!sp) <- v;
    st_par.(!sp) <- p;
    st_size.(!sp) <- s;
    incr sp
  in
  for i = Array.length roots - 1 downto 0 do
    push roots.(i) (-1) 0
  done;
  let cap = ref (Int.max 16 (Int.min max_nodes (2 * n))) in
  let origin = ref (Array.make !cap 0) and parent = ref (Array.make !cap 0) in
  let size = ref (Array.make !cap 0) in
  let grow a = Array.append !a (Array.make !cap 0) in
  let m = ref 0 in
  while !sp > 0 do
    decr sp;
    let v = st_node.(!sp) in
    if !m >= max_nodes then raise (Too_large max_nodes);
    if !m = !cap then begin
      origin := grow origin;
      parent := grow parent;
      size := grow size;
      cap := 2 * !cap
    end;
    !origin.(!m) <- v;
    !parent.(!m) <- st_par.(!sp);
    !size.(!m) <- st_size.(!sp);
    for e = off.(v + 1) - 1 downto off.(v) do
      push tgt.(e) !m sizes.(e)
    done;
    incr m
  done;
  let m = !m and parent = !parent and size = !size in
  let origin = Array.sub !origin 0 m in
  let names = Array.map (Graph.name g) origin in
  let ops = Array.map (Graph.op g) origin in
  let edges = ref [] in
  for i = m - 1 downto 0 do
    if parent.(i) >= 0 then
      edges :=
        { Graph.src = parent.(i); dst = i; delay = 0; size = size.(i) }
        :: !edges
  done;
  let graph = Graph.of_edges ~names ~ops !edges in
  let copies = Array.make n [] in
  for t = m - 1 downto 0 do
    copies.(origin.(t)) <- t :: copies.(origin.(t))
  done;
  { graph; origin; copies }

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
