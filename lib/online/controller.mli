(** Online re-solve: adapt a synthesized design to run-time drift.

    A controller wraps one (graph, table, deadline) design in a long-lived
    {!Assign.Dfg_assign.Repeat_session}. At run time, measured execution
    times drift away from the table ({!scale_node}/{!set_times}); the
    controller detects deadline risk by concretely re-simulating the last
    schedule under the drifted times ({!at_risk}, via
    {!Sched.Cyclic_schedule.simulate}) and, when needed, re-assigns
    {e incrementally} — only the perturbed nodes' DP rows and their
    ancestor chains are recomputed in the tree kernel, with no
    re-expansion or re-allocation ({!resolve}). {!resolve_scratch} is the
    full re-synthesis baseline; both produce bit-identical outcomes
    (asserted by a qcheck differential in [test/test_dvfs.ml] and raced in
    the [dvfs] bench group). *)

type t

type outcome = {
  assignment : Assign.Assignment.t;
  cost : int;  (** total assigned cost (energy, on a leveled table) *)
  schedule : Sched.Schedule.t;
  config : Sched.Config.t;
}

(** [create g table ~deadline] builds the session and solves the initial
    design; {!current} is [None] when even the unperturbed table cannot
    meet the deadline. Raises [Invalid_argument] on a negative deadline. *)
val create : ?max_nodes:int -> Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> t

(** The last successfully resolved design, if any. *)
val current : t -> outcome option

(** [set_times t ~node row] installs measured execution times for one
    node (a [num_types]-wide row, each entry in
    [1 .. Fulib.Table.max_cell]). Costs are not
    perturbed — energy is a property of the implementation, not of the
    measurement. Raises [Invalid_argument] on shape or range errors.
    {!scale_node} drifts through it; a test seam for tests that install
    exact rows. *)
val set_times : t -> node:int -> int array -> unit

(** [scale_node t ~node ~pct] scales the node's whole time row by
    [pct]/100, rounded up, never below 1 and never above
    {!Fulib.Table.max_cell} ([pct >= 1]). *)
val scale_node : t -> node:int -> pct:int -> unit

(** Is the current schedule in danger under the drifted times? True when
    there is no current schedule, or when re-simulating it concretely
    ({!Sched.Cyclic_schedule.simulate}, one iteration at the deadline as
    period) breaks a dependence or overruns the deadline. *)
val at_risk : t -> bool

(** Incremental re-solve on the drifted table: retime the session,
    replay the pin sequence over refreshed rows, reschedule. On success
    the outcome becomes {!current}; [None] means the drifted table is
    infeasible for the deadline (the previous {!current} is kept, as the
    old design keeps running). *)
val resolve : t -> outcome option

(** Full re-synthesis on the drifted table ({!Assign.Dfg_assign.repeat}
    from scratch plus scheduling) — the differential baseline. Does not
    touch the controller's state. *)
val resolve_scratch : t -> outcome option
