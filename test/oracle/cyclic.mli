(** Cyclic-execution oracle.

    A static schedule of a cyclic DFG repeats every [period] steps;
    iteration [i] starts node [v] at [i * period + start v]. An
    inter-iteration edge [u -> v] with [d] delays is respected iff
    [finish u <= start v + d * period]. This checker walks every edge of
    the full graph (not just the DAG portion) with that inequality —
    independently of [Sched.Cyclic_schedule] and [Sched.Rotation]. *)

(** [check g table s ~period] — codes: ["period"] ([period < 1]),
    ["length-mismatch"], ["type-out-of-range"], ["precedence"] (zero-delay
    edge broken within the iteration), ["delay-edge"] (inter-iteration
    dependence broken at this period). *)
val check :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  period:int ->
  Check.Violation.report

(** [check_rotation g table r ~config] audits a whole [Sched.Rotation]
    result against the {e original} graph [g]: the cumulative retiming is
    legal on [g] (["retiming"]), the retimed graph's schedule respects
    precedence and its claimed period covers every delay edge (via
    {!check}), the period matches the schedule length (["period-mismatch"])
    and the fixed configuration still covers peak use (via
    [Check.Config.check]). *)
val check_rotation :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Rotation.result ->
  config:Sched.Config.t ->
  Check.Violation.report
