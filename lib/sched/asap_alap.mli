(** ASAP and ALAP start times under an assignment. *)

(** [asap g table a] gives each node its earliest start: 0 for roots,
    otherwise the latest predecessor finish. *)
val asap : Dfg.Graph.t -> Fulib.Table.t -> Assign.Assignment.t -> int array

(** [alap g table a ~deadline] gives each node its latest start that still
    meets [deadline]. [None] when the assignment's makespan exceeds the
    deadline (some ALAP start would precede step 0). *)
val alap :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  deadline:int ->
  int array option

(** [frames g table a ~deadline] is [Some (asap, alap)] — both computed in
    one call — or [None] when the deadline is infeasible. Synthesis runs
    compute this once and thread it through {!Lower_bound},
    {!Min_resource} and {!Force_directed} via their [?frames] arguments,
    instead of each scheduler recomputing the starts. *)
val frames :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  deadline:int ->
  (int array * int array) option
