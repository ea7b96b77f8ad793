(** Flat, incremental DP kernel for [Tree_Assign] (paper §5.2).

    A kernel owns preallocated DP rows (flat int arrays) for one
    (forest, flat time/cost table, deadline) triple. The forest is a
    parent array, checked in O(n); no {!Dfg.Graph.t} is needed. It
    supports:

    - {!solve}: the optimal forest assignment, recomputing only DP rows
      invalidated since the previous solve;
    - {!pin}: collapse a node's time/cost row to one type (the
      [DFG_Assign_Repeat] fixing step), dirtying just that node. A
      re-solve recomputes it, and climbs to its parent only when the
      recomputed row's least feasible budget or one of its costs changed
      (a parent never reads a child's chosen types), so it costs at most
      O(depth · T · K) and often one row;
    - {!feasible} and {!type_at}: the same re-solve without the O(n)
      traceback, and one node's type read back along its root path in
      O(depth) — all the Repeat fixing loop needs between pins;
    - {!dp_row}: one node's exact DP row.

    Each row is computed only on the budgets a parent read or a traceback
    can reach, the window [\[lo(v), hi(v)\]]. [lo(v)] is [v]'s least
    allowed time plus the greatest [lo] among its children (capped at
    [deadline + 1]); every budget below it is infeasible. [hi(v)] is the
    deadline minus the least allowed times of [v]'s ancestors when the
    kernel was built. Rows are stored packed, each on its window as of
    creation. {!pin} only narrows a window; a {!refresh} that lowers a
    least time below the one [hi] assumed widens the windows below the
    node, dirties its whole subtree and lays the rows out once more. The
    [kernel.cells] counter sums the window widths computed.

    It is the one tree DP of [lib/assign]: [Tree_Assign] runs it on the
    forest or its transpose (a path is the chain forest) and [DFG_Assign]
    on the expanded tree. Results are bit-identical to the
    list-based reference DP kept with the tests: same recurrence, same
    first-minimum tie-breaking, same traceback. *)

type t

(** [create parent ~times ~costs ~k ~deadline] over the forest [parent]
    ([parent.(v)] is [v]'s parent, [-1] for a root) and flat
    [node * k + ftype] tables of non-negative times. The kernel takes
    ownership of [times]/[costs]: {!pin} mutates them in place. [?forbid]
    is an optional [node * k + ftype] placement mask ([true] = type
    disallowed for the node, e.g. because its memory footprint exceeds
    the type's capacity — see {!of_table}): forbidden placements are cut
    inside the DP row computation's type loop, before any DP work for
    them is done. The mask is copied. Raises [Invalid_argument] when
    [parent] is not a forest (an entry out of range, or a cycle), the
    deadline is negative, or array sizes mismatch. {!of_table} builds
    through it; a test seam for the tests that drive the kernel on bare
    parent arrays. *)
val create :
  ?forbid:bool array ->
  int array ->
  times:int array ->
  costs:int array ->
  k:int ->
  deadline:int ->
  t

(** [parents (off, tgt)] is the parent array of the forest whose edges
    are a CSR view of a DAG portion: [Dfg.Graph.csr_preds g] gives [g]'s
    own forest, [Dfg.Graph.csr_succs g] its transpose's. Raises
    [Invalid_argument] when some node has two neighbours in the view. *)
val parents : int array * int array -> int array

(** [of_table ?origin ~parent g table ~deadline] is the kernel for
    [table], the table of graph [g], on the forest [parent], whose node
    [i] stands for node [origin.(i)] of [g] (default the identity): the
    forest may be [g]'s own, its transpose's or its expansion's
    ({!Dfg.Expand}). Node [i] gets a fresh copy of [origin.(i)]'s
    time/cost row. Under the memory model ({!Assignment.mem_constrained})
    it may not take a type whose capacity cannot hold [origin.(i)]'s
    footprint; footprints always come from [g]. Raises [Invalid_argument]
    when the table's node count differs from [g]'s, when [origin]'s
    length differs from [parent]'s, and as {!create}. *)
val of_table :
  ?origin:int array ->
  parent:int array ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  t

(** [copy t] is an independent kernel in [t]'s current state: its rows,
    pins and solved DP rows. Pinning or solving either leaves the other
    alone. *)
val copy : t -> t

(** [solve t] is [Some (assignment, total_cost)] or [None] when some root's
    subtree cannot meet the deadline. First call runs the full DP; later
    calls recompute only rows dirtied by {!pin} or {!refresh}, and the
    ancestors whose inputs those changed. *)
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
    type's values, so every type choice becomes equivalent to [ftype]. It
    dirties [node] alone. *)
val pin : t -> node:int -> ftype:int -> unit

(** [refresh t ~node ~times ~costs] replaces [node]'s time/cost row with
    fresh [k]-wide rows and restores its pristine placement mask, undoing
    any earlier {!pin} of the node. Like [pin] it dirties the node, so a
    re-solve after perturbing a few nodes' execution times recomputes at
    most their ancestor chains instead of all n rows — the primitive
    behind the online re-solve mode ([Online.Controller]). When the new
    row's least allowed time is below the one the windows under [node]
    assume, it also widens them, dirties [node]'s whole subtree and lays
    the packed rows out again. Raises [Invalid_argument] on row width
    mismatch. *)
val refresh : t -> node:int -> times:int array -> costs:int array -> unit

(** [dp_row t ~node] is a fresh copy of X_node — entry [j] is the minimum
    subtree cost within path budget [j] ([max_int] = infeasible) — exact
    on every budget up to the deadline. A root's row is read as cached; a
    non-root's is computed by a scratch kernel on its subtree, past its
    window. *)
val dp_row : t -> node:int -> int array
