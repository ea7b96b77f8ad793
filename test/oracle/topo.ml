(* The heap-based topological order that [Dfg.Graph.of_edges] runs on
   every graph whose ids are not topologically numbered, kept whole as
   the oracle for its identity shortcut: [Dfg.Graph.topo_arr] must equal
   [topo_reference] on every graph. It reads the CSR view through the
   public accessors. *)

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

let topo_reference g =
  let n = Dfg.Graph.num_nodes g in
  let succ_off, succ_tgt = Dfg.Graph.csr_succs g in
  let pred_off, _ = Dfg.Graph.csr_preds g in
  let deg = Array.init n (fun v -> pred_off.(v + 1) - pred_off.(v)) in
  let out = Array.make n 0 in
  let m = kahn n ~adj_off:succ_off ~adj_tgt:succ_tgt ~deg ~out in
  if m < n then invalid_arg "Graph: zero-delay subgraph contains a cycle";
  out
