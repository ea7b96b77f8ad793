(** [Tree_Assign] — optimal assignment for trees and forests (paper §5.2).

    The timing constraint bounds the execution time of every root-to-leaf
    path. The DP, in post-order, computes [X_v(j)] — the minimum cost of the
    subtree rooted at [v] such that every path from [v] to a leaf takes at
    most [j] — combining children at a pseudo node where costs add and path
    times max ([X_vc(j) = sum over children of X_c(j)]). A pseudo root joins
    multiple roots, so forests are handled directly. [O(n * deadline * K)].

    Optimality holds because subtree costs are independent across siblings
    and the timing constraint decomposes per child. *)

(** [solve g table ~deadline] for a graph whose DAG portion is a forest
    (every node has at most one zero-delay parent). Raises
    [Invalid_argument] otherwise. [None] when infeasible.

    Implemented on the flat {!Tree_kernel}. *)
val solve : Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> Assignment.t option

val solve_with_cost :
  Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> (Assignment.t * int) option

(** Like {!solve_with_cost} but also accepts graphs whose {e transpose} is a
    forest (e.g. adder-reduction filters, where many inputs converge on one
    output): path sums are orientation-invariant, so the DP runs on the
    transpose and the assignment maps back unchanged. Memory footprints
    still come from [g] ({!Tree_kernel.of_table}). Raises
    [Invalid_argument] when neither orientation is a forest. *)
val solve_auto :
  Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> (Assignment.t * int) option

(** The DP row of a given node: entry [j] is [X_v(j)] ([max_int] =
    infeasible). Exposed for tests and the Figure-8 walk-through. Each
    call runs the whole DP. *)
val dp_row :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  node:int ->
  int array
