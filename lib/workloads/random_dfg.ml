module B = Dfg.Builder

let ops = [| "add"; "mul"; "sub"; "comp" |]

let random_node rng b i =
  B.add_node b
    ~name:(Printf.sprintf "v%d" i)
    ~op:ops.(Prng.int rng (Array.length ops))

let random_tree rng ~n ~max_children =
  if n < 1 then invalid_arg "Random_dfg.random_tree: n < 1";
  if max_children < 1 then invalid_arg "Random_dfg.random_tree: max_children < 1";
  let b = B.create () in
  let nodes = Array.init n (random_node rng b) in
  let child_count = Array.make n 0 in
  for i = 1 to n - 1 do
    (* pick an earlier node with spare capacity, uniformly *)
    let candidates = ref [] in
    for j = 0 to i - 1 do
      if child_count.(j) < max_children then candidates := j :: !candidates
    done;
    let cands = Array.of_list !candidates in
    let parent =
      if Array.length cands = 0 then i - 1
      else cands.(Prng.int rng (Array.length cands))
    in
    child_count.(parent) <- child_count.(parent) + 1;
    B.add_edge b ~src:nodes.(parent) ~dst:nodes.(i)
  done;
  B.finish b

let random_dag rng ~n ~extra_edges =
  if n < 1 then invalid_arg "Random_dfg.random_dag: n < 1";
  let b = B.create () in
  let nodes = Array.init n (random_node rng b) in
  let present = Hashtbl.create 64 in
  for i = 1 to n - 1 do
    let parent = Prng.int rng i in
    Hashtbl.replace present (parent, i) ();
    B.add_edge b ~src:nodes.(parent) ~dst:nodes.(i)
  done;
  let added = ref 0 and attempts = ref 0 in
  while !added < extra_edges && !attempts < extra_edges * 20 do
    incr attempts;
    if n >= 2 then begin
      let i = Prng.int rng (n - 1) in
      let j = Prng.int_in rng (i + 1) (n - 1) in
      if not (Hashtbl.mem present (i, j)) then begin
        Hashtbl.replace present (i, j) ();
        B.add_edge b ~src:nodes.(i) ~dst:nodes.(j);
        incr added
      end
    end
  done;
  B.finish b

(* Re-emit the same graph with random data sizes on every edge. The edge
   list round-trips in insertion order ([Graph.edges] / [of_edges]), so the
   sizes land deterministically: edge [i] in insertion order gets the
   [i]-th draw. *)
let with_sizes rng ?(min_size = 1) ?(max_size = 8) g =
  if min_size < 0 || max_size < min_size then
    invalid_arg "Random_dfg.with_sizes: bad size range";
  let n = Dfg.Graph.num_nodes g in
  let names = Dfg.Graph.names g in
  let ops = Array.init n (Dfg.Graph.op g) in
  let edges = Dfg.Graph.edges g in
  let sizes = Array.make (List.length edges) 0 in
  for i = 0 to Array.length sizes - 1 do
    sizes.(i) <- Prng.int_in rng min_size max_size
  done;
  Dfg.Graph.of_edges ~names ~ops
    (List.mapi (fun i (e : Dfg.Graph.edge) -> { e with size = sizes.(i) }) edges)

(* The parent rng is split once per graph on the calling domain (split
   advances the parent, so the streams are a pure function of the parent's
   state and the index); only the generation itself fans out. Graphs are
   generated in chunks — one pool task per chunk, not per graph — because
   a single small DAG is far cheaper than a task submission: per-graph
   fan-out loses to the sequential loop on typical sizes. The default is
   two chunks per domain, enough slack to balance uneven graphs while
   keeping per-task overhead amortized over the whole chunk. *)
let batch ?pool ?chunk rng ~count gen =
  if count < 0 then invalid_arg "Random_dfg.batch: count < 0";
  let pool = match pool with Some p -> p | None -> Par.Pool.global () in
  if count = 0 then [||]
  else begin
    let streams = Array.make count rng in
    for i = 0 to count - 1 do
      streams.(i) <- Prng.split rng
    done;
    let chunk =
      match chunk with
      | Some c ->
          if c < 1 then invalid_arg "Random_dfg.batch: chunk < 1";
          c
      | None ->
          let tasks = 2 * Par.Pool.domain_count pool in
          max 1 ((count + tasks - 1) / tasks)
    in
    let num_chunks = (count + chunk - 1) / chunk in
    let gen_chunk lo =
      let hi = min count (lo + chunk) in
      Array.init (hi - lo) (fun k -> gen streams.(lo + k))
    in
    let parts =
      Par.Pool.map_array pool gen_chunk
        (Array.init num_chunks (fun c -> c * chunk))
    in
    Array.concat (Array.to_list parts)
  end

let batch_dags ?pool ?chunk rng ~count ~n ~extra_edges =
  batch ?pool ?chunk rng ~count (fun stream -> random_dag stream ~n ~extra_edges)
