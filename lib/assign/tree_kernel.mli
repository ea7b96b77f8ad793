(** Flat, incremental DP kernel for [Tree_Assign] (paper §5.2).

    A kernel owns preallocated DP matrices (flat int arrays) for one
    (forest, flat time/cost table, deadline) triple and supports:

    - {!solve}: the optimal forest assignment, recomputing only DP rows
      invalidated since the previous solve;
    - {!pin}: collapse a node's time/cost row to one type (the
      [DFG_Assign_Repeat] fixing step), dirtying just the node and its
      ancestor chain — so the re-solve after a pin costs O(depth · T · K)
      instead of O(n · T · K);
    - {!feasible} and {!type_at}: the same re-solve without the O(n)
      traceback, and one node's type read back along its root path in
      O(depth) — all the Repeat fixing loop needs between pins;
    - {!dp_row}: a copy of one node's DP row from the cached matrices.

    Results are bit-identical to the reference list-based DP
    ({!Tree_assign.solve_with_cost_reference}): same recurrence, same
    first-minimum tie-breaking, same traceback. *)

type t

(** [create g ~times ~costs ~k ~deadline] over flat [node * k + ftype]
    tables. The kernel takes ownership of [times]/[costs]: {!pin} mutates
    them in place. [?forbid] is an optional [node * k + ftype] placement
    mask ([true] = type disallowed for the node, e.g. because its memory
    footprint exceeds the type's capacity — see [Context.mem_forbid]):
    forbidden placements are cut inside the DP row computation's type
    loop, before any DP work for them is done. The mask is copied. Raises
    [Invalid_argument] when the DAG portion of [g] is not a forest, the
    deadline is negative, or array sizes mismatch. *)
val create :
  ?forbid:bool array ->
  Dfg.Graph.t ->
  times:int array ->
  costs:int array ->
  k:int ->
  deadline:int ->
  t

val deadline : t -> int

(** [solve t] is [Some (assignment, total_cost)] or [None] when some root's
    subtree cannot meet the deadline. First call runs the full DP; later
    calls recompute only rows dirtied by {!pin}. *)
val solve : t -> (int array * int) option

(** [feasible t] is [solve t <> None] without the traceback: it recomputes
    the rows dirtied since the last solve and checks every root at the
    deadline. It counts as one solve in the [kernel.solves] counter. *)
val feasible : t -> bool

(** [type_at t ~node] is [node]'s type in the assignment {!solve} would
    return now, in O(depth) instead of O(n): walk up [node]'s parent chain,
    then replay the traceback's budgets down it from the deadline (the
    same choices {!solve} reads, so the same answer). Recomputes dirty
    rows first. Raises [Invalid_argument] when [node]'s root cannot meet
    the deadline. *)
val type_at : t -> node:int -> int

(** [pin t ~node ~ftype] overwrites [node]'s time/cost row with the pinned
    type's values, so every type choice becomes equivalent to [ftype]. *)
val pin : t -> node:int -> ftype:int -> unit

(** [refresh t ~node ~times ~costs] replaces [node]'s time/cost row with
    fresh [k]-wide rows and restores its pristine placement mask, undoing
    any earlier {!pin} of the node. Like [pin] it dirties only the node's
    ancestor chain, so a re-solve after perturbing a few nodes' execution
    times recomputes O(chains) DP rows instead of all n — the primitive
    behind the online re-solve mode ([Online.Controller]). Raises
    [Invalid_argument] on row width mismatch. *)
val refresh : t -> node:int -> times:int array -> costs:int array -> unit

(** [dp_row t ~node] is a fresh copy of X_node — entry [j] is the minimum
    subtree cost within path budget [j] ([max_int] = infeasible). *)
val dp_row : t -> node:int -> int array
