(** Critical-path-tree extraction (the paper's [DFG_Expand]).

    A {e critical-path tree} of a DAG is a forest containing one copy of each
    node per distinct root-to-node path, so that every critical path of the
    DAG appears as a root-to-leaf path of the tree. The paper obtains it by
    duplicating, bottom-up in post-order, the subtree rooted at every common
    node that has several parents; we build the same forest top-down by
    cloning shared subtrees per incoming path.

    The forest is three flat arrays, not a {!Graph.t}: the phase-1 kernel
    ([Assign.Tree_kernel]) reads a tree only as a parent array, and every
    copy's rows, name and memory footprint come from its original node. *)

type tree = {
  parent : int array;  (** forest node -> its parent copy, [-1] for a root *)
  origin : int array;  (** forest node -> original node *)
  copies : int list array;
      (** original node -> its forest copies, ascending *)
}

exception Too_large of int
(** Raised with the configured bound when expansion would exceed it. *)

(** The default [max_nodes] bound of {!expand}: [200_000]. *)
val default_max_nodes : int

(** [expand ?max_nodes g] builds the critical-path tree of [g]'s DAG portion.
    The number of tree nodes equals the number of distinct root-to-node paths
    in [g], which can be exponential; [max_nodes] (default
    {!default_max_nodes}) bounds it, raising {!Too_large} beyond.

    Tree nodes are numbered in preorder: roots in ascending order, each
    node's children in [g]'s adjacency order. Every parent is therefore
    numbered below its children. One explicit-stack DFS fills the flat
    arrays; no recursion, however deep [g]. *)
val expand : ?max_nodes:int -> Graph.t -> tree

(** [expand_transposed ?max_nodes g] is [expand ?max_nodes
    (Transpose.transpose g)], numbering included, without building the
    transposed graph: the DFS starts from [g]'s leaves and walks each
    node's zero-delay predecessors in ascending id order, which is the
    transpose's adjacency order. *)
val expand_transposed : ?max_nodes:int -> Graph.t -> tree

(** [tree_sizes ~max_nodes g] is [(forward, transposed)]: the node counts
    of [expand g] and of [expand_transposed g], computed in O(n + e)
    without building either tree. A node has one forward copy per
    root-to-node path and one transposed copy per node-to-leaf path. Each
    count saturates at [max_nodes + 1], so a count above [max_nodes] means
    exactly that the matching expansion raises {!Too_large} (for a
    non-empty graph). *)
val tree_sizes : max_nodes:int -> Graph.t -> int * int

(** Original nodes that have more than one copy in the tree (the paper's
    {e duplicated nodes}), in ascending node order. *)
val duplicated_nodes : tree -> int list

(** [copy_count t v] is the number of copies of original node [v]. *)
val copy_count : tree -> int -> int
