(** Random DFG generators for property tests and scaling benchmarks. *)

(** [random_tree rng ~n ~max_children] — a rooted out-tree: every node
    except the root gets one parent chosen among earlier nodes that still
    have capacity. *)
val random_tree : Prng.t -> n:int -> max_children:int -> Dfg.Graph.t

(** [random_dag rng ~n ~extra_edges] — a connected DAG: a random tree plus
    [extra_edges] additional forward edges (duplicates avoided), which
    create the reconvergent fan-out that makes expansion non-trivial. *)
val random_dag : Prng.t -> n:int -> extra_edges:int -> Dfg.Graph.t

(** [with_sizes rng ?min_size ?max_size g] re-emits [g] with a uniform
    random data size in [min_size..max_size] (defaults [1..8]) on every
    edge, in edge insertion order — the memory-model counterpart of the
    structural generators above. Nodes, ops and edge structure are
    unchanged. *)
val with_sizes :
  Prng.t -> ?min_size:int -> ?max_size:int -> Dfg.Graph.t -> Dfg.Graph.t

(** [batch ?pool ?chunk rng ~count gen] generates [count] graphs, each
    from its own PRNG stream split off [rng] by index on the calling
    domain, with the generation fanned out over [pool] (default
    [Par.Pool.global ()]) in chunks of [chunk] graphs per pool task.
    [chunk] defaults to two tasks per pool domain
    ([ceil (count / (2 * domains))]) — one task per {e graph} loses to
    the sequential loop on typical sizes, the task submission costing
    more than a small DAG. Bit-identical to the sequential
    [Array.init count (fun _ -> gen (Prng.split rng))] for any domain
    count and any [chunk]. [rng] advances by [count] splits. Raises
    [Invalid_argument] when [chunk < 1]. {!batch_dags} is [batch] over
    {!random_dag}; a test seam for the parity tests' own generators. *)
val batch :
  ?pool:Par.Pool.t ->
  ?chunk:int ->
  Prng.t ->
  count:int ->
  (Prng.t -> Dfg.Graph.t) ->
  Dfg.Graph.t array

(** [batch_dags ?pool ?chunk rng ~count ~n ~extra_edges] — {!batch} over
    {!random_dag} instances of one shape. *)
val batch_dags :
  ?pool:Par.Pool.t ->
  ?chunk:int ->
  Prng.t ->
  count:int ->
  n:int ->
  extra_edges:int ->
  Dfg.Graph.t array
