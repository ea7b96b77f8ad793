(** Phase-2 schedule oracle.

    Audits a static schedule against everything the paper requires of it:
    precedence under the {e true} assigned latencies, the deadline,
    per-control-step per-type occupancy against a reported configuration,
    and consistency between the schedule's embedded assignment and the
    Phase-1 assignment it claims to implement. Occupancy is recomputed
    from scratch ({!Config.occupancy}); nothing is delegated to the
    scheduler's own validity helpers. *)

(** [check ?assignment ?config g table s ~deadline] — codes:

    - ["length-mismatch"]: start/assignment arrays do not cover the graph;
    - ["type-out-of-range"]: a scheduled node's type is outside the library;
    - ["assignment-mismatch"]: [s] implements a different type choice than
      the Phase-1 [assignment] it is paired with;
    - ["negative-start"]: a node starts before step 0;
    - ["precedence"]: a zero-delay edge's consumer starts before its
      producer finishes;
    - ["deadline"]: the schedule length exceeds [deadline];
    - ["config-length"] / ["occupancy"]: the reported [config] is malformed
      or some control step uses more instances of a type than configured
      (first offending step per type). *)
val check :
  ?assignment:Assign.Assignment.t ->
  ?config:Sched.Config.t ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  deadline:int ->
  Violation.report
