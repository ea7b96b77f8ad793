(** Orderings of the DAG portion of a graph. *)

(** [sort g] is a topological order of the zero-delay subgraph: if there is a
    zero-delay edge [u -> v] then [u] appears before [v]. Ties are broken by
    node id, making the order deterministic. *)
val sort : Graph.t -> int list

(** [post_order g] lists every node with all its zero-delay descendants
    first: if there is a zero-delay edge [u -> v] then [v] appears before
    [u] (the paper's post-ordering). It is [List.rev (sort g)]. *)
val post_order : Graph.t -> int list

(** [levels g] assigns each node its depth in the DAG portion: roots are at
    level 0 and [level v = 1 + max (level parents)]. *)
val levels : Graph.t -> int array
