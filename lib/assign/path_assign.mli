(** [Path_Assign] — optimal assignment for a simple path (paper §5.1).

    Dynamic program over prefixes: [X_i(j)] is the minimum system cost of
    nodes [v_1 .. v_i] finishing within [j] time units, computed for
    [j = 0 .. deadline]. [O(n * deadline * K)] time — pseudo-polynomial, and
    polynomial whenever node times are bounded by a constant.

    This is the [Tree_Assign] recurrence on the reversed chain
    [v_n -> ... -> v_1], where [X_i] is the row of [v_i]; it runs on
    {!Tree_kernel}. *)

(** [solve table ~deadline] treats the table's nodes, in index order, as the
    path [v_0 -> v_1 -> ...]. Returns an optimal assignment, or [None] when
    even the all-fastest assignment misses the deadline. *)
val solve : Fulib.Table.t -> deadline:int -> Assignment.t option

(** [solve_with_cost] also returns the optimal system cost. *)
val solve_with_cost :
  Fulib.Table.t -> deadline:int -> (Assignment.t * int) option

(** [solve_graph g table ~deadline] checks that [g]'s DAG portion is a simple
    path and solves along it, returning the assignment indexed by [g]'s node
    ids. Raises [Invalid_argument] when [g] is not a simple path. *)
val solve_graph :
  Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> Assignment.t option

(** [cost_profile table ~deadline] is the final DP row: entry [j] is the
    minimum cost within time [j] ([max_int] marks infeasible). Exposed for
    tests and for the figure-5 style walk-through. *)
val cost_profile : Fulib.Table.t -> deadline:int -> int array
