(** Optimal assignment for series-parallel DFGs.

    The paper builds on Li–Lim–Agarwal–Sahni's circuit implementation work,
    which gives a pseudo-polynomial algorithm on series-parallel circuits;
    this module supplies that algorithm for node-weighted DFGs, extending
    the exactly-solvable class beyond trees.

    A DFG is {e series-parallel} here when, after splitting every node into
    an in/out vertex pair carrying the node as an edge and joining all roots
    to a virtual source and all leaves to a virtual sink, the resulting
    two-terminal multigraph reduces to a single source-sink edge by the
    classic series and parallel reductions. Every forest and every
    fan-in/fan-out diamond is series-parallel; arbitrary reconvergence is
    not.

    The DP mirrors {!Assign.Tree_assign}: over the SP expression, costs add both in
    series and in parallel, path times add in series and max in parallel.
    [O(size * deadline^2)] (the square from series convolution). Optimal. *)

(** SP expressions over node ids. [Series []] is the empty expression
    (zero time, zero cost). *)
type expr =
  | Node of int
  | Series of expr list
  | Parallel of expr list

(** [decompose g] reduces [g]'s DAG portion; [None] when the graph is not
    series-parallel. Every node id of [g] appears exactly once in the
    result. *)
val decompose : Dfg.Graph.t -> expr option

val is_series_parallel : Dfg.Graph.t -> bool

(** [solve g table ~deadline] — optimal assignment, or [None] when
    infeasible. Raises [Invalid_argument] when [g] is not series-parallel
    (test with {!is_series_parallel} first). *)
val solve :
  Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> (Assign.Assignment.t * int) option

(** [solve_expr expr table ~deadline] — the DP on an explicit expression
    (node ids index [table]); exposed for generator-driven tests. *)
val solve_expr :
  expr -> Fulib.Table.t -> deadline:int -> (Assign.Assignment.t * int) option

(** Realise an expression as a DFG with the same critical-path semantics:
    series connects every leaf of the left part to every root of the right
    part, parallel is disjoint union. Node ids are preserved; [names.(v)]
    labels node [v].

    {!solve_expr} is exact for any realisation (the per-path constraints of
    the realised graph factor into exactly the series/parallel recurrences),
    but note the realisation is only {e recognisable} by {!decompose} when
    no series step joins multiple leaves to multiple roots — such a step
    produces a complete bipartite junction, which is not two-terminal
    series-parallel. A single-node junction between fanned parts keeps the
    realisation inside the class. *)
val to_graph : names:string array -> expr -> Dfg.Graph.t
