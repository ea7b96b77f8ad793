(** The dual problem: minimise the makespan subject to a cost budget.

    The paper minimises cost under a deadline; designers equally often have
    an energy/price budget and want the fastest design inside it. Because
    the optimal cost of the primal DPs is non-increasing in the deadline,
    the dual is solved exactly by binary-searching the deadline over the
    primal ({!for_tree}); a direct prefix DP over the cost
    dimension ({!path_dp}) is provided for simple paths as an independent
    cross-check. *)

(** [for_tree g table ~budget] — minimum feasible makespan of a forest (in
    either orientation, as {!Tree_assign.solve_auto}) within the cost
    budget. *)
val for_tree :
  Dfg.Graph.t -> Fulib.Table.t -> budget:int -> (int * Assignment.t) option

(** [path_dp table ~budget] — direct DP for a simple path (nodes in index
    order): [Y_i(c)] = minimum total execution time of the prefix with cost
    at most [c]. Returns the minimum makespan and an assignment. *)
val path_dp : Fulib.Table.t -> budget:int -> (int * Assignment.t) option
