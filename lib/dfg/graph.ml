type edge = { src : int; dst : int; delay : int; size : int }

(* Flat, cache-friendly view of the DAG portion (zero-delay subgraph),
   built once at construction: CSR adjacency (offsets + targets), total
   edge count, roots/leaves, forest flag and topological order, plus a
   lazily-computed post order. Every derived quantity the solver kernels
   iterate over in inner loops is served from here without allocating
   lists. *)
type csr = {
  num_edges : int;  (* edges of any delay *)
  succ_off : int array;  (* length n+1; zero-delay succs of v at
                            [succ_off.(v) .. succ_off.(v+1) - 1] *)
  succ_tgt : int array;
  succ_size : int array;  (* parallel to succ_tgt: zero-delay edge sizes *)
  pred_off : int array;
  pred_tgt : int array;
  out_data : int array;  (* per node: total size over ALL outgoing edges *)
  has_data : bool;  (* any edge (any delay) with size > 0 *)
  roots : int array;  (* ascending *)
  leaves : int array;  (* ascending *)
  is_tree : bool;
  topo : int array;  (* the acyclicity check, so never lazy *)
  mutable post : int array option;
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

let build_csr n succs preds ~ascending =
  let num_edges = Array.fold_left (fun acc l -> acc + List.length l) 0 succs in
  let count_zero l =
    List.fold_left (fun acc (_, d, _) -> if d = 0 then acc + 1 else acc) 0 l
  in
  let fill adj =
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v) + count_zero adj.(v)
    done;
    let tgt = Array.make off.(n) 0 in
    let sz = Array.make off.(n) 0 in
    for v = 0 to n - 1 do
      let i = ref off.(v) in
      List.iter
        (fun (w, d, s) ->
          if d = 0 then begin
            tgt.(!i) <- w;
            sz.(!i) <- s;
            incr i
          end)
        adj.(v)
    done;
    (off, tgt, sz)
  in
  let succ_off, succ_tgt, succ_size = fill succs in
  let pred_off, pred_tgt, _ = fill preds in
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
  let out_data =
    Array.map
      (fun l -> List.fold_left (fun acc (_, _, s) -> acc + s) 0 l)
      succs
  in
  let has_data = Array.exists (fun d -> d > 0) out_data in
  let collect pred =
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
  let is_tree =
    let ok = ref true in
    for v = 0 to n - 1 do
      if pred_off.(v + 1) - pred_off.(v) > 1 then ok := false
    done;
    !ok
  in
  {
    num_edges;
    succ_off;
    succ_tgt;
    succ_size;
    pred_off;
    pred_tgt;
    out_data;
    has_data;
    roots;
    leaves;
    is_tree;
    topo;
    post = None;
  }

let compute_post g =
  let n = num_nodes g in
  let c = g.csr in
  let deg = Array.init n (fun v -> c.succ_off.(v + 1) - c.succ_off.(v)) in
  let out = Array.make n 0 in
  let m = kahn n ~adj_off:c.pred_off ~adj_tgt:c.pred_tgt ~deg ~out in
  if m < n then invalid_arg "Graph: zero-delay subgraph contains a cycle";
  out

(* --- Flat accessors (read-only arrays: callers must not mutate) ------- *)

let csr_succs g = (g.csr.succ_off, g.csr.succ_tgt)
let csr_preds g = (g.csr.pred_off, g.csr.pred_tgt)
let csr_succ_sizes g = g.csr.succ_size
let out_data_arr g = g.csr.out_data
let out_data g v = g.csr.out_data.(v)
let has_data_sizes g = g.csr.has_data
let roots_arr g = g.csr.roots
let leaves_arr g = g.csr.leaves

(* Data only crosses FU boundaries when producer and consumer land on
   different types; a same-type hop is a local-memory access and free. *)
let transfer ~src_type ~dst_type ~size =
  if src_type = dst_type then 0 else size

let topo_arr g = g.csr.topo

let post_arr g =
  match g.csr.post with
  | Some o -> o
  | None ->
      let o = compute_post g in
      g.csr.post <- Some o;
      o

let preheat g = ignore (post_arr g)

let iter_dag_succs g v f =
  let c = g.csr in
  for i = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
    f c.succ_tgt.(i)
  done

let iter_dag_succs_sized g v f =
  let c = g.csr in
  for i = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
    f c.succ_tgt.(i) c.succ_size.(i)
  done

let iter_dag_preds g v f =
  let c = g.csr in
  for i = c.pred_off.(v) to c.pred_off.(v + 1) - 1 do
    f c.pred_tgt.(i)
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
let leaves g = Array.to_list g.csr.leaves
let is_tree g = g.csr.is_tree
let mem_edge g ~src ~dst = List.exists (fun (w, _, _) -> w = dst) g.succs.(src)

let of_edges ~names ?ops ?sizes edge_list =
  let n = Array.length names in
  let ops =
    match ops with
    | Some o ->
        if Array.length o <> n then
          invalid_arg "Graph.of_edges: ops length mismatch";
        Array.copy o
    | None -> Array.make n "op"
  in
  let edge_list =
    match sizes with
    | None -> edge_list
    | Some sz ->
        if Array.length sz <> List.length edge_list then
          invalid_arg "Graph.of_edges: sizes length mismatch";
        List.mapi (fun i e -> { e with size = sz.(i) }) edge_list
  in
  let succs = Array.make n [] and preds = Array.make n [] in
  let ascending = ref true in
  let check_node v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Graph.of_edges: node %d out of range" v)
  in
  List.iter
    (fun { src; dst; delay; size } ->
      check_node src;
      check_node dst;
      if delay < 0 then invalid_arg "Graph.of_edges: negative delay";
      if size < 0 then invalid_arg "Graph.of_edges: negative size";
      if src = dst && delay = 0 then
        invalid_arg "Graph.of_edges: zero-delay self-loop";
      if delay = 0 && src > dst then ascending := false;
      succs.(src) <- (dst, delay, size) :: succs.(src);
      preds.(dst) <- (src, delay, size) :: preds.(dst))
    edge_list;
  Array.iteri (fun i l -> succs.(i) <- List.rev l) succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  {
    names = Array.copy names;
    ops;
    succs;
    preds;
    csr = build_csr n succs preds ~ascending:!ascending;
  }

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
