(** The dual problem: minimise the makespan subject to a cost budget.

    The paper minimises cost under a deadline; designers equally often have
    an energy/price budget and want the fastest design inside it. Because
    the optimal cost of the primal DPs is non-increasing in the deadline,
    the dual is solved exactly by binary-searching the deadline over the
    primal ({!for_tree}). A direct prefix DP over the cost dimension for
    simple paths, the independent cross-check, lives with the tests. *)

(** [for_tree g table ~budget] — minimum feasible makespan of a forest (in
    either orientation, as {!Tree_assign.solve_auto}) within the cost
    budget. *)
val for_tree :
  Dfg.Graph.t -> Fulib.Table.t -> budget:int -> (int * Assignment.t) option
