(** Memory oracle: re-derives per-FU-type aggregate data loads and
    per-FU-instance peak resident data from primitives — edge sizes, the
    assignment, start steps and the binding's instance map — independently
    of the solver-side caches, and checks both against the library's
    per-type capacities. *)

(** [peaks g table s b] is the oracle's own per-type, per-instance peak
    resident data (same shape as {!Sched.Binding.peak_memory}, computed
    from first principles). A test seam: the differential tests compare
    the two. *)
val peaks :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  Sched.Binding.t ->
  int array array

(** [check g table s b] reports:

    - ["mem-load-over-capacity"] — some type's total assigned footprint
      exceeds its capacity (the static Phase-1 bound);
    - ["mem-peak-over-capacity"] — some instance's peak resident data
      exceeds its type's capacity (the schedule-aware refinement);
    - ["length-mismatch"] / ["type-out-of-range"] — malformed input.

    On an unconstrained instance (no sizes or no finite capacity) the
    report is trivially clean. *)
val check :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  Sched.Binding.t ->
  Violation.report
