(** Response-time iteration for light tasks sharing the residual pool.

    The execution model the analysis bounds (and {!Sim} replays): the
    residual pool is a single non-preemptive server. Jobs of light tasks
    queue at release and run {e one at a time}, each occupying the pool
    for exactly its makespan [cost]; among ready jobs the one with the
    smallest relative deadline runs first (deadline-monotonic, ties by
    id). Serializing whole jobs keeps the resource argument airtight —
    while a job runs, the pool hosts exactly one static schedule, whose
    per-type peak usage was checked against the residual capacity at
    admission.

    The classic sufficient test for this model (constrained deadlines
    [deadline <= period]):

    {[ R_i = C_i + B_i + sum_{j in hp(i)} ceil(R_i / T_j) * C_j ]}

    with blocking [B_i = max_{j in lp(i)} C_j] (a lower-priority job that
    just started cannot be preempted). The iteration starts at
    [C_i + B_i], grows monotonically, and is abandoned as an overrun the
    moment it crosses [deadline_i] — so it terminates whether or not a
    fixpoint below the deadline exists. The test is conservative: a
    synchronous release of every task is the critical instant it bounds,
    and {!Sim.run} replays exactly that scenario. *)

type light = { id : string; cost : int; period : int; deadline : int }

(** The shared pool is one serialized server, so its utilization bound. *)
val utilization_bound : float

type outcome =
  | Schedulable of (string * int) list
      (** per-task response times, same order as the input *)
  | Utilization_overrun of float  (** witness: the sum [> utilization_bound] *)
  | Response_overrun of { id : string; response : int; deadline : int }
      (** witness: the first (in priority order) task whose fixpoint
          iteration crossed its deadline, with the crossing value *)

(** Raises [Invalid_argument] on a light with [cost < 0], [period < 1] or
    [deadline < 1] or [deadline > period] (light tasks have constrained
    deadlines by construction). *)
val analyse : light list -> outcome
