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

    Each row is computed only on the budgets a parent read or a traceback
    can reach, the window [\[lo(v), hi(v)\]]. [lo(v)] is [v]'s least
    allowed time plus the greatest [lo] among its children (capped at
    [deadline + 1]); every budget below it is infeasible. [hi(v)] is the
    deadline minus the least allowed times of [v]'s ancestors when the
    kernel was built. {!pin} only narrows a window; a {!refresh} that
    lowers a least time below the one [hi] assumed widens the windows
    below the node and dirties its whole subtree. The [kernel.cells]
    counter sums the window widths computed.

    It is the one tree DP of [lib/assign]: [Tree_Assign] runs it on the
    forest, [Path_Assign] on the reversed chain and [DFG_Assign] on the
    expanded tree, each through {!of_table}. Results are bit-identical to
    the list-based reference DP kept with the tests: same recurrence, same
    first-minimum tie-breaking, same traceback. *)

type t

(** [create g ~times ~costs ~k ~deadline] over flat [node * k + ftype]
    tables of non-negative times. The kernel takes ownership of
    [times]/[costs]: {!pin} mutates them in place. [?forbid] is an
    optional [node * k + ftype] placement mask ([true] = type disallowed
    for the node, e.g. because its memory footprint exceeds the type's
    capacity — see {!of_table}): forbidden placements are cut inside the
    DP row computation's type loop, before any DP work for them is done.
    The mask is copied. Raises
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

(** [of_table ?tree ?origin g table ~deadline] is the kernel for [table],
    the table of graph [g]. It runs on the forest [tree] (default [g]),
    whose node [i] stands for node [origin.(i)] of [g] (default the
    identity): [tree] may be [g], its transpose or its expansion
    ({!Dfg.Expand}). Node [i] gets a fresh copy of [origin.(i)]'s
    time/cost row. Under the memory model ({!Assignment.mem_constrained})
    it may not take a type whose capacity cannot hold [origin.(i)]'s
    footprint; footprints always come from [g], whose out-edges the
    transpose and the expansion do not keep. Raises [Invalid_argument]
    when the table's node count differs from [g]'s, when [origin]'s
    length differs from [tree]'s node count, and as {!create}. *)
val of_table :
  ?tree:Dfg.Graph.t ->
  ?origin:int array ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  t

(** [copy t] is an independent kernel in [t]'s current state: its rows,
    pins and solved DP matrices. Pinning or solving either leaves the
    other alone. *)
val copy : t -> t

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
    any earlier {!pin} of the node. Like [pin] it dirties the node's
    ancestor chain, so a re-solve after perturbing a few nodes' execution
    times recomputes O(chains) DP rows instead of all n — the primitive
    behind the online re-solve mode ([Online.Controller]). When the new
    row's least allowed time is below the one the windows under [node]
    assume, it also widens them and dirties [node]'s whole subtree. Raises
    [Invalid_argument] on row width mismatch. *)
val refresh : t -> node:int -> times:int array -> costs:int array -> unit

(** [dp_row t ~node] is a fresh copy of X_node — entry [j] is the minimum
    subtree cost within path budget [j] ([max_int] = infeasible) — exact
    on every budget up to the deadline. A root's row is read as cached; a
    non-root's subtree is first recomputed up to the deadline, past its
    window. *)
val dp_row : t -> node:int -> int array
