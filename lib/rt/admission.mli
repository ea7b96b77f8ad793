(** Federated admission control over a fixed FU platform.

    The platform is a per-type pool of FU instances ({!spec}). Arriving
    periodic tasks (already analysed by {!Task}) are admitted or rejected
    so that the admitted set is always schedulable:

    - {e heavy} tasks get their minimum-resource configuration dedicated
      to them, subtracted from the pool;
    - {e light} tasks share the residual pool one job at a time; the set
      of light tasks is re-proved schedulable by {!Response_time} on
      every admission (a new light task can push an {e existing} one over
      its deadline — the verdict's witness then names the victim).

    Admission is monotone on release: removing a task only shrinks
    reservations and interference, so {!release} never needs to re-prove
    anything. The controller is single-session mutable state — the
    daemon creates one per connection; it is not thread-safe. *)

(** Platform capacity: the same instance count for every FU type, or an
    explicit per-type array (which fixes the platform's type count). *)
type spec = Uniform of int | Per_type of int array

(** Parse ["4"] to [Uniform 4], ["2-1-3"] (or comma-separated) to
    [Per_type [|2;1;3|]]. [Error] names the offending string. *)
val spec_of_string : string -> (spec, string) result

val spec_to_string : spec -> string

(** The instance count per FU type {!create} defaults to: 2. *)
val default_uniform_capacity : int

type t

(** [create ?capacity ()] — an empty controller (default capacity
    [Uniform default_uniform_capacity]). Raises [Invalid_argument] on a non-positive
    uniform capacity, an empty per-type array, or a negative entry. *)
val create : ?capacity:spec -> unit -> t

val capacity : t -> spec

(** One admitted task as the controller tracks it. [response_time] of a
    light task is updated whenever later admissions change it. *)
type admitted = {
  id : string;
  analysed : Task.analysed;
  mutable response_time : int;
}

(** Admitted tasks in admission order. *)
val admitted : t -> admitted list

(** [find t ~id] — the admitted entry under [id]. Admission and release
    look entries up with it; a test seam for reading one back. *)
val find : t -> id:string -> admitted option

(** Total utilization of the admitted set (FU-steps per step). *)
val utilization : t -> float

(** [try_admit t ~id analysed] — the verdict; the controller state is
    updated exactly when the verdict is [Admitted]. *)
val try_admit : t -> id:string -> Task.analysed -> Verdict.t

(** [release t ~id] removes a task; [false] when unknown. Light response
    times of the remaining tasks are re-derived (they only improve). *)
val release : t -> id:string -> bool
