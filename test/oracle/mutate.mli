(** Targeted corruption of known-good solver outputs — the harness that
    tests the validators themselves.

    Each mutation picks the first eligible site deterministically, applies
    one corruption of its class and returns a description of what it broke
    together with the corrupted artifact ([None] when the input offers no
    eligible site, e.g. a single-type library for {!swap_type}). The
    matching checker must flag every produced mutant; [test/test_check.ml]
    asserts exactly that on the paper benchmarks and on random DFGs. *)

(** Bump the latest-finishing node's start so the schedule length lands
    just past [deadline] — caught by [Check.Schedule] (["deadline"]). *)
val bump_start :
  Fulib.Table.t -> Sched.Schedule.t -> deadline:int -> (string * Sched.Schedule.t) option

(** Swap one node to a type of different cost — caught by
    [Check.Assignment ~expect_cost] (["cost-mismatch"], possibly also
    ["path-over-deadline"]). *)
val swap_type :
  Fulib.Table.t -> Assign.Assignment.t -> (string * Assign.Assignment.t) option

(** Silently swap one node to a sibling frequency level of its base type
    (different cost, energy report left untouched) — caught by
    [Check.Energy ~expect_energy] (["energy-mismatch"]). [None] when no
    node has a differently-priced sibling level (e.g. single-level
    ladders). [table] is the expanded table [a] refers to. *)
val swap_level :
  Fulib.Table.t ->
  mapping:Fulib.Dvfs.mapping ->
  Assign.Assignment.t ->
  (string * Assign.Assignment.t) option

(** Set one node's type to the library size — caught by [Check.Assignment]
    (["type-out-of-range"]). [None] on empty assignments. *)
val out_of_range_type :
  Fulib.Table.t -> Assign.Assignment.t -> (string * Assign.Assignment.t) option

(** Drop one instance from a type whose peak use would no longer be
    covered — caught by [Check.Config] (["config-under-provision"]). *)
val shrink_config :
  Fulib.Table.t -> Sched.Schedule.t -> config:Sched.Config.t -> (string * Sched.Config.t) option

(** Shrink the most-loaded type's memory capacity to one unit below its
    aggregate assigned data load — caught by [Check.Memory]
    (["mem-load-over-capacity"]). [None] when no type carries data (sizes
    all zero). *)
val shrink_mem_capacity :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  (string * Fulib.Table.t) option

(** Reverse the slack of one zero-delay edge: its consumer now starts one
    step before the producer finishes — caught by [Check.Schedule]
    (["precedence"]). *)
val break_precedence :
  Dfg.Graph.t -> Fulib.Table.t -> Sched.Schedule.t -> (string * Sched.Schedule.t) option

(** Break one inter-iteration dependence at the given [period]: move the
    consumer earlier (or the producer later) until
    [finish u > start v + d * period] — caught by [Cyclic]
    (["delay-edge"]). [None] when the graph has no delay edge. *)
val break_delay :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  period:int ->
  (string * Sched.Schedule.t) option
