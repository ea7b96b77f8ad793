(** Exact schedulability: does {e any} schedule meet the deadline under a
    given configuration?

    Resource-constrained scheduling is NP-complete (the paper cites Garey &
    Johnson for exactly this), so {!Min_resource} and
    {!Resource_constrained} are heuristics; this branch-and-bound decides
    the question exactly on small instances and is the reference the tests
    and the minimum-configuration search ({!Min_config}) build on.

    Branching picks the unscheduled node with the tightest remaining
    window (smallest latest-start, then id) and tries every start in
    [earliest .. latest]; pruning discards branches where any node's
    earliest start (from scheduled predecessors) exceeds its latest start
    (from the deadline through successors), or where a resource is
    over-subscribed. *)

exception Budget_exhausted

(** [schedule ?budget g table a ~config ~deadline] — a witness schedule
    within [config] and [deadline], or [None] when there is none.
    [budget] (default [2_000_000]) bounds search-tree nodes; raises
    {!Budget_exhausted} beyond. *)
val schedule :
  ?budget:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  config:Config.t ->
  deadline:int ->
  Schedule.t option
