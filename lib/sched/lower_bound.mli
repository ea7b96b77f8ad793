(** [Lower_Bound_FU] (paper §6): a per-type lower bound on the number of FU
    instances any deadline-meeting schedule needs.

    From ALAP starts: the work of a node started no later than its ALAP
    start forces at least [clamp (s - alap v) 0 (time v)] busy steps into
    the first [s] steps; dividing the type's total forced work by [s] and
    rounding up bounds the instance count. Symmetrically from ASAP starts
    for the last [s] steps. The bound is the maximum over every prefix and
    suffix length. Counting busy steps (not node starts) generalises the
    paper's per-step node counts to multi-cycle operations and coincides
    with them when all times are 1.

    O(n + T·K) for [n] nodes, deadline [T] and [K] types. A node's prefix
    term rises by one per step over [(alap v, alap v + busy]] and is flat
    elsewhere, so its first difference is a unit box: the bound adds +1/-1
    at the box ends per type and prefix-sums twice, instead of re-summing
    every node at every step. The suffix side is the same box with
    [deadline - asap v - busy] in place of [alap v]. *)

(** [per_type ?pipelined ?frames g table a ~deadline] returns the per-type
    lower bounds. [None] when the assignment cannot meet the deadline at
    all. A pipelined type (initiation interval 1) contributes one busy step
    per operation — the issue slot — instead of its full duration.
    [frames] supplies precomputed {!Asap_alap.frames} (computed internally
    when absent). *)
val per_type :
  ?pipelined:(int -> bool) ->
  ?frames:int array * int array ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  deadline:int ->
  Config.t option
