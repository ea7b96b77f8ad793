(** Exact minimum configuration: the cheapest FU configuration under which
    {e some} schedule meets the deadline.

    Candidate configurations live in the box between {!Lower_bound}'s
    per-type bounds and the naive one-FU-per-node counts; they are explored
    in increasing objective order (total FU count by default, or a weighted
    sum, e.g. FU areas), and the first exactly-schedulable one — decided by
    {!Exact_schedule} — is optimal for that objective.

    Exponential in the worst case (both the box walk and each
    schedulability check); meant for small instances and for measuring how
    close the paper's [Min_FU_Scheduling] gets. *)

(** The search's priority queue, a test seam. Entries of equal
    priority pop in FIFO (insertion) order, so the minimal configuration
    returned among equal-objective candidates is deterministic and does
    not depend on push order of ties. *)
module Pq : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> int -> 'a -> unit

  (** Lowest priority first; FIFO within a priority. *)
  val pop : 'a t -> (int * 'a) option
end

(** [solve ?weights ?budget g table a ~deadline] returns the optimal
    configuration, its witness schedule, and the objective value. [weights]
    defaults to all-ones (minimise total FU count); [budget] (default
    [2_000_000]) bounds each schedulability check, raising
    [Exact_schedule.Budget_exhausted]. [None] when even the naive
    configuration misses the deadline (i.e. the assignment itself is
    infeasible). *)
val solve :
  ?weights:int array ->
  ?budget:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  deadline:int ->
  (Config.t * Schedule.t * int) option
