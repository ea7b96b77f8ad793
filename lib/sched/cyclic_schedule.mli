(** Cyclic execution of a static schedule: overlap, throughput, simulation.

    A static schedule of the DAG portion repeats every [period] control
    steps: iteration [i] starts node [v] at [i * period + start v]. An
    inter-iteration edge [u -> v] with [d] delays makes iteration [i] of
    [v] consume what iteration [i - d] of [u] produced, which is satisfied
    iff [finish u <= start v + d * period]. With [period] equal to the
    schedule length every delayed edge holds trivially; smaller periods
    overlap consecutive iterations (software pipelining) and trade FU
    sharing for throughput. *)

(** [min_period g table s] — the smallest legal period of the schedule:
    [max] over delayed edges of [ceil ((finish u - start v) / d)], at least
    1, and at least the per-type resource bound (total busy steps per type
    divided by the schedule's instance count, since the FU usage pattern
    repeats every period). Requires [s] to respect zero-delay precedence. *)
val min_period : Dfg.Graph.t -> Fulib.Table.t -> Schedule.t -> int

type sim_result = {
  ok : bool;  (** every data dependence was satisfied during the run *)
  finish_time : int;  (** completion time of the last simulated operation *)
  utilisation : float array;
      (** per FU type: busy steps / (instances * simulated span) *)
  throughput : float;  (** iterations completed per control step *)
}

(** [simulate g table s ~period ~iterations] executes [iterations] copies
    of the schedule [period] steps apart, re-checking every dependence
    concretely (the test suite's cyclic oracle must agree), and measures
    utilisation against the schedule's peak configuration. [iterations >=
    1]. *)
val simulate :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Schedule.t ->
  period:int ->
  iterations:int ->
  sim_result
