(** Schedulability verdicts for periodic multi-DAG admission control.

    An arriving periodic task is either {e admitted} — with a
    {!reservation} describing the FU capacity it was granted — or
    {e rejected} with a {!reason} that doubles as a machine-checkable
    witness: every rejection constructor carries the exact numbers
    (capacity shortfall, utilization sum, response-time fixpoint) that
    justify it, so an independent checker can re-derive the inequality
    without re-running the analysis. *)

type reservation = {
  heavy : bool;
      (** [true] — the task got dedicated FU instances ([config]);
          [false] — it shares the residual pool with the other light
          tasks and [config] is its per-type demand on that pool. *)
  config : Sched.Config.t;
      (** per-type instance counts: the dedicated reservation of a heavy
          task, or the peak demand a light task places on the shared
          residual pool while one of its jobs runs *)
  response_time : int;
      (** worst-case job response time in control steps: the schedule
          makespan for a heavy task (jobs start at their release on
          dedicated FUs), the response-time fixpoint for a light task *)
  utilization : float;  (** task work / period, in FU-steps per step *)
}

(** Why a task was turned away. Constructors carry their witness. *)
type reason =
  | Infeasible_deadline
      (** no assignment/schedule of the task's DFG meets its deadline
          even with the whole platform to itself *)
  | Synthesis_error of string
      (** the per-task synthesis failed for a non-schedulability reason
          (solver error, budget timeout, memory-infeasible instance) *)
  | Period_overrun of { min_period : int; period : int }
      (** the schedule's smallest legal repetition period exceeds the
          task period: witness [min_period > period] *)
  | Width_mismatch of { expected : int; got : int }
      (** the task's FU-type count differs from the platform's *)
  | Duplicate_id of string  (** a task with this id is already admitted *)
  | Insufficient_capacity of { ftype : int; need : int; have : int }
      (** FU type [ftype] would need [need] instances where only [have]
          remain: witness [need > have] *)
  | Utilization_overrun of { utilization : float; bound : float }
      (** the light tasks' total utilization would exceed the shared
          pool's bound: witness [utilization > bound] *)
  | Response_overrun of { id : string; response : int; deadline : int }
      (** light task [id]'s response-time fixpoint crossed its deadline:
          witness [response > deadline]. [id] may name an {e already
          admitted} task the candidate would have pushed over. *)

type t = Admitted of reservation | Rejected of reason

(** Stable wire code for a reason, e.g. ["insufficient_capacity"]. *)
val reason_code : reason -> string

(** Human-readable one-liner including the witness numbers. *)
val reason_detail : reason -> string
