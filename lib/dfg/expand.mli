(** Critical-path-tree extraction (the paper's [DFG_Expand]).

    A {e critical-path tree} of a DAG is a forest containing one copy of each
    node per distinct root-to-node path, so that every critical path of the
    DAG appears as a root-to-leaf path of the tree. The paper obtains it by
    duplicating, bottom-up in post-order, the subtree rooted at every common
    node that has several parents; we build the same forest top-down by
    cloning shared subtrees per incoming path. *)

type tree = {
  graph : Graph.t;  (** the forest: every node has at most one parent *)
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
    {!default_max_nodes}) bounds it, raising {!Too_large} beyond. *)
val expand : ?max_nodes:int -> Graph.t -> tree

(** [tree_sizes ~max_nodes g] is [(forward, transposed)]: the node counts
    of [expand g] and of [expand (Transpose.transpose g)], computed in
    O(n + e) without building either tree. A node has one forward copy per
    root-to-node path and one transposed copy per node-to-leaf path. Each
    count saturates at [max_nodes + 1], so a count above [max_nodes] means
    exactly that the matching {!expand} raises {!Too_large} (for a
    non-empty graph). *)
val tree_sizes : max_nodes:int -> Graph.t -> int * int

(** Original nodes that have more than one copy in the tree (the paper's
    {e duplicated nodes}), in ascending node order. *)
val duplicated_nodes : tree -> int list

(** [copy_count t v] is the number of copies of original node [v]. *)
val copy_count : tree -> int -> int
