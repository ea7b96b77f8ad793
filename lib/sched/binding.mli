(** FU binding: mapping scheduled operations onto concrete FU instances.

    The paper's Figure 3 draws schedules as per-FU timelines (FU1 runs v1
    then v4, ...); this module produces that mapping. Binding uses the
    left-edge algorithm per type: nodes sorted by start step are packed
    onto the lowest-numbered instance that is free, which never needs more
    instances than the schedule's peak concurrent usage. *)

type t = {
  instance : int array;
      (** node -> instance index within its assigned FU type (0-based) *)
  config : Config.t;  (** instances actually used per type *)
}

(** [bind ?pipelined table s] computes a binding for a valid schedule. The
    resulting [config] equals [Schedule.peak_usage ?pipelined table s]. On
    a pipelined type (initiation interval 1) an instance is reusable from
    the step after an operation issues, so in-flight operations overlap. *)
val bind : ?pipelined:(int -> bool) -> Fulib.Table.t -> Schedule.t -> t

(** [unshared table s] gives every operation its own instance: a node's
    instance is its rank among the nodes of its type (in node order), and
    [config] counts the nodes per type. Always valid, never shares; the
    other end of the Figure-3 trade-off from {!bind}. *)
val unshared : Fulib.Table.t -> Schedule.t -> t

(** [is_valid ?pipelined table s b] checks no two nodes share an instance
    while both occupy it (full duration, or just the issue step for
    pipelined types). *)
val is_valid : ?pipelined:(int -> bool) -> Fulib.Table.t -> Schedule.t -> t -> bool

(** [peak_memory ~graph table s b] is, per FU type and instance, the peak
    data resident on that instance in any single step: [(result.(t)).(i)]
    is instance [i] of type [t]'s peak. A buffer lives on its producer's
    instance from the producer's start step until the consumer completes
    (zero-delay edges) or for the whole schedule (delay edges, whose
    buffers cross iterations). Since every buffer of a node charges at
    most its full footprint ({!Dfg.Graph.out_data}), each instance's peak
    is bounded by its type's aggregate assignment load
    ({!Assign.Assignment.mem_loads}) — so any memory-feasible assignment
    yields per-instance peaks within capacity. *)
val peak_memory :
  graph:Dfg.Graph.t -> Fulib.Table.t -> Schedule.t -> t -> int array array

(** Render per-FU timelines, Figure-3 style: one row per FU instance with
    the operations it executes in time order. *)
val pp :
  graph:Dfg.Graph.t ->
  table:Fulib.Table.t ->
  schedule:Schedule.t ->
  Format.formatter ->
  t ->
  unit
