(** Periodic real-time DAG tasks and their per-task analysis.

    A task releases a job every [period] control steps; each job executes
    the task's DFG once and must complete within [deadline] steps of its
    release. The paper's two-phase synthesis solves one job in isolation;
    this module turns that solution into the facts federated admission
    control needs: total work, utilization, the schedule's smallest legal
    repetition period, and the heavy/light classification.

    {2 Heavy vs light}

    A task is {e heavy} when its utilization (work / period) reaches the
    threshold, or when [deadline > period] so consecutive jobs must
    overlap (software pipelining). Heavy tasks get the FU instances of
    their minimum-resource configuration {e dedicated} to them — the
    federated-scheduling reservation — and then meet every deadline by
    construction: each job starts at its release and finishes [makespan]
    steps later, with {!Sched.Cyclic_schedule.min_period} guaranteeing the
    overlapped repetition is legal. A {e light} task ([utilization <
    threshold], [deadline <= period]) would waste a dedicated reservation;
    light tasks instead share the residual pool one job at a time (see
    {!Response_time} and {!Admission}). *)

type t = private {
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  period : int;
  deadline : int;
}

(** Raises [Invalid_argument] when [period < 1] or [deadline < 1]. *)
val make : period:int -> deadline:int -> Dfg.Graph.t -> Fulib.Table.t -> t

type analysed = {
  task : t;
  schedule : Sched.Schedule.t;  (** one job's static schedule *)
  config : Sched.Config.t;
      (** the schedule's per-type peak usage — reservation (heavy) or
          shared-pool demand (light) *)
  makespan : int;  (** schedule length: one job's execution time *)
  work : int;  (** total busy steps of one job under its assignment *)
  utilization : float;  (** [work / period] *)
  min_period : int;  (** {!Sched.Cyclic_schedule.min_period} of the schedule *)
  heavy : bool;
}

(** 1.0, [?heavy_threshold]'s default in {!of_schedule}. A test seam:
    the tests classify tasks against it. *)
val default_heavy_threshold : float

(** [of_schedule ?heavy_threshold task ~schedule ~config] classifies an
    already-solved task. [Error Period_overrun] when the schedule cannot
    legally repeat every [task.period] steps; the caller guarantees the
    schedule meets [task.deadline]. *)
val of_schedule :
  ?heavy_threshold:float ->
  t ->
  schedule:Sched.Schedule.t ->
  config:Sched.Config.t ->
  (analysed, Verdict.reason) result

(** The reservation record a verdict reports for this task. *)
val reservation : analysed -> response_time:int -> Verdict.reservation

val pp_analysed : Format.formatter -> analysed -> unit
