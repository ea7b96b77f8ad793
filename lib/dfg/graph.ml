type edge = { src : int; dst : int; delay : int; size : int }

(* Flat, cache-friendly view of the DAG portion (zero-delay subgraph),
   built once at construction: CSR adjacency (offsets + targets), total
   edge count, roots/leaves, forest flag and topological order. Every
   derived quantity the solver kernels iterate over in inner loops is
   served from here without allocating lists, and nothing is filled in
   later: a graph is immutable once built. Sweeps that need children
   before parents walk the topological order backwards. *)
type csr = {
  num_edges : int;  (* edges of any delay *)
  succ_off : int array;  (* length n+1; zero-delay succs of v at
                            [succ_off.(v) .. succ_off.(v+1) - 1] *)
  succ_tgt : int array;
  pred_off : int array;
  pred_tgt : int array;
  out_data : int array;  (* per node: total size over ALL outgoing edges *)
  has_data : bool;  (* any edge (any delay) with size > 0 *)
  roots : int array;  (* ascending *)
  leaves : int array;  (* ascending *)
  is_tree : bool;  (* at most one zero-delay predecessor per node *)
  is_in_tree : bool;  (* at most one zero-delay successor per node *)
  topo : int array;  (* also the acyclicity check *)
}

type t = {
  names : string array;
  ops : string array;
  succs : (int * int * int) list array;  (* (dst, delay, size) *)
  preds : (int * int * int) list array;  (* (src, delay, size) *)
  csr : csr;
}

let num_nodes g = Array.length g.names
let name g v = g.names.(v)
let op g v = g.ops.(v)
let names g = Array.copy g.names
let succs g v = List.map (fun (w, d, _) -> (w, d)) g.succs.(v)
let preds g v = List.map (fun (w, d, _) -> (w, d)) g.preds.(v)
let succs_sized g v = g.succs.(v)
let preds_sized g v = g.preds.(v)

(* --- CSR construction ------------------------------------------------- *)

(* Kahn's algorithm over the CSR view with a binary min-heap frontier keyed
   by node id — the same "smallest ready node first" tie-breaking as the
   historical sorted-list frontier, so orders are bit-stable. Returns the
   number of ordered nodes (< n exactly when the subgraph has a cycle). *)
let kahn n ~adj_off ~adj_tgt ~deg ~out =
  let heap = Array.make (max n 1) 0 in
  let size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    heap.(!i) <- v;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      if heap.(p) > heap.(!i) then begin
        let tmp = heap.(p) in
        heap.(p) <- heap.(!i);
        heap.(!i) <- tmp;
        i := p
      end
      else continue := false
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < !size && heap.(l) < heap.(!smallest) then smallest := l;
      if r < !size && heap.(r) < heap.(!smallest) then smallest := r;
      if !smallest <> !i then begin
        let tmp = heap.(!smallest) in
        heap.(!smallest) <- heap.(!i);
        heap.(!i) <- tmp;
        i := !smallest
      end
      else continue := false
    done;
    top
  in
  for v = 0 to n - 1 do
    if deg.(v) = 0 then push v
  done;
  let m = ref 0 in
  while !size > 0 do
    let v = pop () in
    out.(!m) <- v;
    incr m;
    for i = adj_off.(v) to adj_off.(v + 1) - 1 do
      let w = adj_tgt.(i) in
      deg.(w) <- deg.(w) - 1;
      if deg.(w) = 0 then push w
    done
  done;
  !m

(* The derived views of the zero-delay subgraph, from its CSR arrays. *)
let build_csr n ~num_edges ~succ:(succ_off, succ_tgt) ~pred:(pred_off, pred_tgt)
    ~out_data ~ascending =
  (* Computing the topological order is also the acyclicity check. When
     every zero-delay edge climbs in id, the heap pass would pop 0, 1, ..,
     n-1: once 0..m-1 are out, all of m's predecessors are, and every
     ready node is >= m. *)
  let topo =
    if ascending then Array.init n Fun.id
    else begin
      let deg = Array.init n (fun v -> pred_off.(v + 1) - pred_off.(v)) in
      let out = Array.make n 0 in
      if kahn n ~adj_off:succ_off ~adj_tgt:succ_tgt ~deg ~out < n then
        invalid_arg "Graph.of_edges: zero-delay subgraph contains a cycle";
      out
    end
  in
  let has_data = Array.exists (fun d -> d > 0) out_data in
  let collect (pred : int array) =
    let count = ref 0 in
    for v = 0 to n - 1 do
      if pred.(v + 1) = pred.(v) then incr count
    done;
    let out = Array.make !count 0 in
    let i = ref 0 in
    for v = 0 to n - 1 do
      if pred.(v + 1) = pred.(v) then begin
        out.(!i) <- v;
        incr i
      end
    done;
    out
  in
  let roots = collect pred_off in
  let leaves = collect succ_off in
  let at_most_one (off : int array) =
    let ok = ref true in
    for v = 0 to n - 1 do
      if off.(v + 1) - off.(v) > 1 then ok := false
    done;
    !ok
  in
  let is_tree = at_most_one pred_off in
  let is_in_tree = at_most_one succ_off in
  {
    num_edges;
    succ_off;
    succ_tgt;
    pred_off;
    pred_tgt;
    out_data;
    has_data;
    roots;
    leaves;
    is_tree;
    is_in_tree;
    topo;
  }

(* --- Flat accessors (read-only arrays: callers must not mutate) ------- *)

let csr_succs g = (g.csr.succ_off, g.csr.succ_tgt)
let csr_preds g = (g.csr.pred_off, g.csr.pred_tgt)
let out_data_arr g = g.csr.out_data
let out_data g v = g.csr.out_data.(v)
let has_data_sizes g = g.csr.has_data
let roots_arr g = g.csr.roots
let leaves_arr g = g.csr.leaves

(* Data only crosses FU boundaries when producer and consumer land on
   different types; a same-type hop is a local-memory access and free. *)
let transfer ~(src_type : int) ~dst_type ~size =
  if src_type = dst_type then 0 else size

let topo_arr g = g.csr.topo

let preheat (_ : t) = ()

let iter_dag_succs g v f =
  let c = g.csr in
  for i = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
    f c.succ_tgt.(i)
  done

let fold_dag_succs g v ~init ~f =
  let c = g.csr in
  let acc = ref init in
  for i = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
    acc := f !acc c.succ_tgt.(i)
  done;
  !acc

let fold_dag_preds g v ~init ~f =
  let c = g.csr in
  let acc = ref init in
  for i = c.pred_off.(v) to c.pred_off.(v + 1) - 1 do
    acc := f !acc c.pred_tgt.(i)
  done;
  !acc

(* --- List views (kept for callers outside the hot kernels) ------------ *)

let dag_succs g v =
  let c = g.csr in
  List.init
    (c.succ_off.(v + 1) - c.succ_off.(v))
    (fun i -> c.succ_tgt.(c.succ_off.(v) + i))

let dag_preds g v =
  let c = g.csr in
  List.init
    (c.pred_off.(v + 1) - c.pred_off.(v))
    (fun i -> c.pred_tgt.(c.pred_off.(v) + i))

let num_edges g = g.csr.num_edges

let edges g =
  let acc = ref [] in
  for src = num_nodes g - 1 downto 0 do
    List.iter
      (fun (dst, delay, size) -> acc := { src; dst; delay; size } :: !acc)
      (List.rev g.succs.(src))
  done;
  !acc

let dag_out_degree g v = g.csr.succ_off.(v + 1) - g.csr.succ_off.(v)
let dag_in_degree g v = g.csr.pred_off.(v + 1) - g.csr.pred_off.(v)
let roots g = Array.to_list g.csr.roots
let is_tree g = g.csr.is_tree
let is_in_tree g = g.csr.is_in_tree

(* The zero-delay part of each node's [other] neighbours in CSR form
   (offsets, targets), in edge order: one stable counting pass over the
   edges bucketed by [from]. *)
let zero_delay n ~from ~other ~delay =
  let m = Array.length from in
  let off = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    if delay.(i) = 0 then off.(from.(i) + 1) <- off.(from.(i) + 1) + 1
  done;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let tgt = Array.make off.(n) 0 and at = Array.sub off 0 n in
  for i = 0 to m - 1 do
    if delay.(i) = 0 then begin
      let v = from.(i) in
      tgt.(at.(v)) <- other.(i);
      at.(v) <- at.(v) + 1
    end
  done;
  (off, tgt)

(* Every edge is checked, in input order, before any is linked, so the
   first bad edge is the one named. The messages say [of_edges], the
   name wire clients have always seen in a ["graph: ..."] error. The
   adjacency lists are consed from the last edge back, so each holds its
   edges in input order with nothing to reverse. *)
let of_edge_arrays ~names ~ops ~src ~dst ~delay ~size =
  let n = Array.length names and m = Array.length src in
  if Array.length ops <> n then invalid_arg "Graph.of_edges: ops length mismatch";
  if Array.length dst <> m || Array.length delay <> m || Array.length size <> m
  then invalid_arg "Graph.of_edge_arrays: edge arrays differ in length";
  let check_node v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: node %d out of range" v)
  in
  let ascending = ref true and out_data = Array.make n 0 in
  for i = 0 to m - 1 do
    let s = src.(i) and d = dst.(i) and l = delay.(i) in
    check_node s;
    check_node d;
    if l < 0 then invalid_arg "Graph.of_edges: negative delay";
    if size.(i) < 0 then invalid_arg "Graph.of_edges: negative size";
    if s = d && l = 0 then invalid_arg "Graph.of_edges: zero-delay self-loop";
    if l = 0 && s > d then ascending := false;
    out_data.(s) <- out_data.(s) + size.(i)
  done;
  let succs = Array.make n [] and preds = Array.make n [] in
  for i = m - 1 downto 0 do
    let s = src.(i) and d = dst.(i) and l = delay.(i) and z = size.(i) in
    succs.(s) <- (d, l, z) :: succs.(s);
    preds.(d) <- (s, l, z) :: preds.(d)
  done;
  {
    names = Array.copy names;
    ops = Array.copy ops;
    succs;
    preds;
    csr =
      build_csr n ~num_edges:m
        ~succ:(zero_delay n ~from:src ~other:dst ~delay)
        ~pred:(zero_delay n ~from:dst ~other:src ~delay)
        ~out_data ~ascending:!ascending;
  }

let of_edges ~names ?ops edge_list =
  let ops =
    match ops with Some o -> o | None -> Array.make (Array.length names) "op"
  in
  let m = List.length edge_list in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let delay = Array.make m 0 and size = Array.make m 0 in
  List.iteri
    (fun i e ->
      src.(i) <- e.src;
      dst.(i) <- e.dst;
      delay.(i) <- e.delay;
      size.(i) <- e.size)
    edge_list;
  of_edge_arrays ~names ~ops ~src ~dst ~delay ~size

let pp ppf g =
  Format.fprintf ppf "@[<v>graph (%d nodes, %d edges)" (num_nodes g)
    (num_edges g);
  for v = 0 to num_nodes g - 1 do
    Format.fprintf ppf "@,  %s [%s] ->" (name g v) (op g v);
    List.iter
      (fun (w, d, s) ->
        let sz = if s > 0 then Printf.sprintf "{%d}" s else "" in
        if d = 0 then Format.fprintf ppf " %s%s" (name g w) sz
        else Format.fprintf ppf " %s(d=%d)%s" (name g w) d sz)
      g.succs.(v)
  done;
  Format.fprintf ppf "@]"
