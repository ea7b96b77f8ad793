(** [Min_FU_Scheduling] (paper §6): revised list scheduling that meets the
    deadline while using as few FU instances as possible.

    Starting from the {!Lower_bound} configuration, control steps advance
    from 0; at each step every ready node whose ALAP start equals the
    current step is started — growing the configuration if no instance is
    free — and the remaining free instances are filled with ready nodes in
    least-slack (earliest-ALAP) order without ever growing the
    configuration. Every node therefore starts no later than its ALAP
    start, so the deadline is met by construction whenever the assignment
    admits it.

    A node enters a ready pool, kept in (ALAP, id) order, at the step its
    last predecessor finishes (release buckets indexed by step), and each
    step is a single pass over the pool: a node whose ALAP start is now
    starts unconditionally, any other only if an instance of its type is
    free over its busy steps. This is the same schedule as the two passes
    described above: every pooled node has ALAP ≥ now, so the forced nodes
    sort first, and a node started now releases its successors at the next
    step at the earliest (times are ≥ 1), so the pool does not change
    within a step. Every node is released and inserted once, each step
    scans only the nodes ready then, and nothing is allocated per step. *)

type result = {
  schedule : Schedule.t;
  config : Config.t;  (** per-type peak concurrent usage of the schedule *)
  lower_bound : Config.t;  (** the initial {!Lower_bound} configuration *)
}

(** [run ?pipelined ?frames g table a ~deadline] returns [None] exactly
    when the assignment's makespan exceeds the deadline. [pipelined ftype]
    marks FU types with initiation interval 1: their instances are busy
    only during an operation's issue step, so one instance can overlap many
    in-flight operations; the {!Lower_bound} is computed under the same
    model. [frames] supplies precomputed {!Asap_alap.frames} — a synthesis
    run computes them once and threads them through both the bound and the
    scheduler. *)
val run :
  ?pipelined:(int -> bool) ->
  ?frames:int array * int array ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  deadline:int ->
  result option

(** The naive configuration that gives every node its own FU — the paper's
    Figure 3(a) strawman: per type, the number of nodes assigned to it. *)
val naive_config : Fulib.Table.t -> Assign.Assignment.t -> Config.t
