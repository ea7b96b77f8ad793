(** Data-flow graphs.

    A DFG is a node-weighted directed graph whose edges carry a delay count:
    zero-delay edges are intra-iteration (precedence) dependences, positive
    delays are inter-iteration dependences. Assignment and scheduling operate
    on the {e DAG portion} — the subgraph of zero-delay edges — which is
    required to be acyclic.

    Nodes are dense integer identifiers [0 .. num_nodes - 1]. Values of type
    {!t} are immutable; use {!Builder} or {!of_edges} to construct them. *)

type t

(** [size] is the amount of data the edge carries (abstract units, default
    0 = negligible). It feeds the memory model: a node's footprint is the
    total size of its outgoing edges, charged against the producing FU
    type's local-memory capacity (see {!Fulib.Library.mem_capacity}), and
    {!transfer} prices the data movement when producer and consumer land on
    different FU types. *)
type edge = { src : int; dst : int; delay : int; size : int }

(** [of_edges ~names ?ops ?sizes edges] builds a graph over nodes
    [0 .. Array.length names - 1]. [ops.(v)] is a free-form operation kind
    (e.g. ["mul"]) defaulting to ["op"]. [sizes.(i)], when given, overrides
    the [size] field of the [i]-th edge of [edges] — a convenience for
    callers sizing an existing edge list. Raises [Invalid_argument] on node
    ids out of range, negative delays or sizes, a [sizes] length mismatch,
    self-loops with zero delay, or when the zero-delay subgraph contains a
    cycle.

    The topological order ({!topo_arr}) is built here, as the acyclicity
    check. When every zero-delay edge goes from a lower id to a higher one
    it is the identity, with no heap pass. *)
val of_edges :
  names:string array -> ?ops:string array -> ?sizes:int array -> edge list -> t

val num_nodes : t -> int
val num_edges : t -> int
val name : t -> int -> string
val op : t -> int -> string
val names : t -> string array

(** Successors/predecessors in the full graph, as [(neighbour, delay)]
    pairs in insertion order. *)
val succs : t -> int -> (int * int) list

val preds : t -> int -> (int * int) list

(** Successors/predecessors with data sizes, as [(neighbour, delay, size)]
    triples in insertion order. *)
val succs_sized : t -> int -> (int * int * int) list

val preds_sized : t -> int -> (int * int * int) list

(** Successors/predecessors restricted to the DAG portion (zero delay). *)
val dag_succs : t -> int -> int list

val dag_preds : t -> int -> int list

val edges : t -> edge list

(** Out-degree/in-degree in the DAG portion. *)
val dag_out_degree : t -> int -> int

val dag_in_degree : t -> int -> int

(** Roots (no zero-delay parent) and leaves (no zero-delay child) of the DAG
    portion, in increasing node order. *)
val roots : t -> int list

val leaves : t -> int list

(** [is_tree g] is true when the DAG portion is a forest: every node has at
    most one zero-delay parent. *)
val is_tree : t -> bool

(** [is_in_tree g] is true when every node has at most one zero-delay
    child, i.e. exactly when [is_tree] holds for the graph with every edge
    reversed, without building that graph. *)
val is_in_tree : t -> bool

(** {2 Flat (CSR) views of the DAG portion}

    The zero-delay subgraph is also cached in compressed-sparse-row form at
    construction: adjacency as [(offsets, targets)] int arrays, with node
    [v]'s neighbours at [targets.(offsets.(v)) .. targets.(offsets.(v+1)-1)]
    in the same order as {!dag_succs}/{!dag_preds}. Degree, root/leaf and
    order queries are O(1)/amortised and allocation-free — this is the view
    the solver kernels run on. All returned arrays are owned by the graph:
    treat them as read-only. *)

val csr_succs : t -> int array * int array
val csr_preds : t -> int array * int array

(** {2 Data sizes and the memory model} *)

(** [out_data g v] is node [v]'s memory footprint: the total [size] over
    ALL its outgoing edges (delay edges included — their buffers persist
    across iterations). [out_data_arr] is the cached per-node array. *)
val out_data : t -> int -> int

val out_data_arr : t -> int array

(** [has_data_sizes g] is true when any edge carries a positive size —
    i.e. the memory model is non-trivial for this graph. *)
val has_data_sizes : t -> bool

(** [transfer ~src_type ~dst_type ~size] is the inter-FU transfer cost of
    moving [size] units between the producing and consuming FU types: [0]
    when they coincide (local-memory access), [size] otherwise. *)
val transfer : src_type:int -> dst_type:int -> size:int -> int

(** Roots/leaves of the DAG portion as cached ascending arrays. *)
val roots_arr : t -> int array

val leaves_arr : t -> int array

(** Topological order of the DAG portion: the deterministic
    smallest-ready-node-first order of {!Topo.sort}, which is implemented
    on top. Built by {!of_edges}. Walked backwards it lists every node
    after all its zero-delay descendants, which is how {!Topo.post_order}
    and the children-first sweeps ([Paths.longest_from], ALAP frames)
    read it. *)
val topo_arr : t -> int array

(** Does nothing: graphs have nothing lazy left to force, so a graph is
    safe to share across domains (see [Par.Pool]) as soon as
    {!of_edges} returns. Kept for callers that still call it. *)
val preheat : t -> unit

(** Allocation-free iteration over zero-delay neighbours, in adjacency
    order. *)
val iter_dag_succs : t -> int -> (int -> unit) -> unit

val fold_dag_succs : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a
val fold_dag_preds : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [mem_edge g ~src ~dst] is true when some edge (any delay) links [src] to
    [dst]. *)
val mem_edge : t -> src:int -> dst:int -> bool

val pp : Format.formatter -> t -> unit
