(** [DFG_Assign_Once] and [DFG_Assign_Repeat] — heuristics for general DFGs
    (paper §5.3).

    Both expand the DFG (or its transpose, whichever yields the smaller
    critical-path tree) with {!Dfg.Expand}, solve the tree optimally with
    {!Tree_assign}, and then reconcile the copies of duplicated nodes:

    - {e Once} assigns each duplicated node the minimum-execution-time type
      among its copies' assignments, in a single pass. This is always
      timing-safe, since shortening a node only shortens paths.
    - {e Repeat} fixes duplicated nodes one at a time — most-copied first —
      pinning each fixed node's time/cost in the tree and re-running
      [Tree_assign], so later decisions exploit the slack freed (or
      consumed) by earlier ones.

    On a DFG that is already a tree there are no duplicated nodes and both
    heuristics return the [Tree_assign] optimum. *)

type orientation = Forward | Transposed

(** The tree both heuristics work on: the smaller of [expand g] and
    [expand (transpose g)] (ties prefer [Forward]). Critical-path sums are
    orientation-invariant, so either is sound. Both sizes are counted in
    O(n + e) with {!Dfg.Expand.tree_sizes} and only the chosen tree is
    built, the transposed one by {!Dfg.Expand.expand_transposed} without
    a transposed graph. Raises {!Dfg.Expand.Too_large} when either size exceeds
    [max_nodes] (default {!Dfg.Expand.default_max_nodes}), exactly as
    building both trees would. *)
val choose_tree : ?max_nodes:int -> Dfg.Graph.t -> orientation * Dfg.Expand.tree

val once :
  ?max_nodes:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  Assignment.t option

(** Incremental: one {!Tree_kernel} on the expanded tree's parent array
    serves the whole fixing loop. Pinning a duplicated node dirties only
    its copies' rows; the re-solve before the next node recomputes them
    and climbs to a parent only while a recomputed row's least feasible
    budget or costs changed. Fixing a node traces back only its own
    copies ({!Tree_kernel.type_at}). Bit-identical to the full-re-solve
    reference kept with the tests. *)
val repeat :
  ?max_nodes:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  Assignment.t option

(** [Repeat] with a per-round candidate search: each round re-solves the
    tree once per remaining duplicated node (pinned to its min-time choice
    under the current solve) and commits the cheapest re-solve, ties toward
    the lower node id. The round's candidate re-solves are independent and
    evaluated on [pool] (default {!Par.Pool.global}), each on a private
    copy of the master kernel ({!Tree_kernel.copy}); results are
    bit-identical for any domain count, including the [domains = 1]
    sequential fallback. Strictly more search than {!repeat} at an
    O(d) per-round DP cost for [d] duplicated nodes. *)
val repeat_search :
  ?pool:Par.Pool.t ->
  ?max_nodes:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  Assignment.t option

(** [repeat_with_order] exposes the duplicated-node fixing order for
    ablation: [`By_copies] is the paper's rule (greatest copy count first),
    [`By_id] fixes in ascending node order, [`Reverse] in the paper's order
    reversed. *)
val repeat_with_order :
  ?max_nodes:int ->
  order:[ `By_copies | `By_id | `Reverse ] ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  Assignment.t option

(** A [repeat] run split into a long-lived session for online re-solving:
    the expanded tree, fixing order, placement mask, and {!Tree_kernel}
    survive across solves. After {!Repeat_session.retime} with a perturbed
    table, only the changed nodes' copies (plus previously pinned
    duplicates) are refreshed and the DP recomputes at most their ancestor
    chains — no re-expansion, no re-allocation, no full first DP.
    {!Repeat_session.resolve} is bit-identical to a from-scratch {!repeat}
    on the session's current table. *)
module Repeat_session : sig
  type t

  (** Raises [Invalid_argument] on a negative deadline. *)
  val create :
    ?max_nodes:int -> Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> t

  (** [retime t table'] moves the session to a perturbed table. [table']
      must have the same shape and memory capacities as the session's
      current table (only times/costs may drift — capacities feed the
      placement mask, which is fixed at {!create}). *)
  val retime : t -> Fulib.Table.t -> unit

  (** The [repeat] assignment for the session's current table ([None] =
      deadline infeasible). Idempotent: a second call without an
      intervening {!retime} returns the cached result. *)
  val resolve : t -> Assignment.t option
end

(** Run [once] on a fixed orientation (ablation of the smaller-tree rule). *)
val once_oriented :
  ?max_nodes:int ->
  orientation ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  Assignment.t option
