(** Configuration-coverage oracle.

    The paper's Phase-2 output is a configuration (instances per FU type)
    claimed to carry the schedule. This checker recomputes the per-step
    per-type occupancy of the schedule from scratch — no call into
    [Sched.Schedule]'s own usage machinery — and verifies the reported
    configuration covers the peak concurrent use of every type. *)

(** [occupancy table s] — per FU type, per control step, how many nodes of
    that type occupy an instance (full execution interval, recomputed
    independently). Nodes with out-of-range types or negative starts are
    skipped (other checkers flag them). *)
val occupancy : Fulib.Table.t -> Sched.Schedule.t -> int array array

(** [check table s ~config] — [config] has one slot count per library
    type, no count is negative, and every type's peak concurrent use is
    covered. Codes: ["config-length"], ["negative-slots"],
    ["config-under-provision"]. *)
val check :
  Fulib.Table.t -> Sched.Schedule.t -> config:Sched.Config.t -> Violation.report
