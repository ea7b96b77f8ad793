(** One-call synthesis pipeline: Phase-1 assignment followed by Phase-2
    minimum-resource scheduling, as in the paper's two-phase approach.

    The service-grade entry point is {!solve}: a {!request} record in, a
    {!response} record out, never an exception. The CLI, the experiment
    grids, the Pareto sweeps and the batch server ([lib/serve]) all go
    through it.

    A solve is one chain of stages, each under a span of its own name,
    all under one [synthesis.solve] span:
    + [dvfs.expand] (leveled requests): expand the table by the ladders;
    + [assign]: check that the algorithm applies to the graph, then
      Phase 1 ({!Assign.Solve.run});
    + [sched.frames]: the ASAP/ALAP windows of that assignment;
    + [sched.schedule]: Phase 2 ({!Sched.Min_resource} or
      {!Sched.Force_directed}), whose configuration is derived in a
      nested [sched.config] span;
    + [sched.reclaim] (leveled requests): slack reclamation;
    + [rtl.lower] (rtl requests): {!Rtl.Backend.summarize};
    + [check.validate]: the audit, which runs (and is traced) on every
      solve that gets this far but checks only when validation is on.

    A stage either hands its output to the next or stops the solve with a
    status; a stopped solve answers no result. *)

(** The Phase-1 algorithm catalogue, owned by {!Assign.Solve} (the single
    dispatch point); re-exported so existing [Core.Synthesis.Repeat]-style
    constructors keep working. *)
type algorithm = Assign.Solve.algorithm =
  | Greedy
  | Greedy_iterative
  | Tree
  | Once
  | Repeat
  | Repeat_search
  | Repeat_refined
  | Beam
  | Exact

val algorithm_name : algorithm -> string

(** Phase-2 scheduler choice: the paper's revised list scheduling
    ([Min_FU_Scheduling]) or force-directed scheduling (extension). *)
type scheduler = List_scheduling | Force_directed

type result = {
  algorithm : algorithm;
  assignment : Assign.Assignment.t;
  cost : int;  (** system cost — sum of node execution costs *)
  makespan : int;  (** critical-path time under the assignment *)
  schedule : Sched.Schedule.t;
  config : Sched.Config.t;  (** configuration of the generated schedule *)
  lower_bound : Sched.Config.t;  (** [Lower_Bound_FU] configuration *)
}

(** One synthesis job. Build with {!request}; the record is exposed so
    callers can pattern-match and the serve cache can digest it. *)
type request = {
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  deadline : int;  (** timing constraint (control steps) *)
  algorithm : algorithm;
  scheduler : scheduler;
  validate : bool;
      (** audit the result with the [lib/check] oracles and report the
          violations in the response (also forced on by
          [HETSCHED_VALIDATE] / [Check.Env]) *)
  budget_ms : int option;
      (** wall-clock budget. Polled before every stage that runs (a
          started stage is never interrupted) and translated into a
          search-node budget for {!Exact}; an exhausted budget yields
          status {!Timeout}. [Some 0] times out deterministically before
          the first stage. *)
  levels : Fulib.Dvfs.level array array option;
      (** per-base-type DVFS frequency ladders. When present, the pipeline
          solves over the {!Fulib.Dvfs.expand}ed table (every (type,
          level) pair is a selectable implementation), reclaims static
          slack after Phase 2 ({!Sched.Reclaim}), reports energy stats,
          and carries the expanded table in the response's [dvfs] field. *)
  rtl : bool;
      (** lower the solved design to structural SystemVerilog
          ({!Rtl.Backend.summarize}, style [Structural]) and carry the
          artifact digests, interconnect stats and unsupported-op report
          in the response's [rtl] field. Deterministic, so cached
          responses stay byte-identical. *)
}

(** [request ?scheduler ?validate ?budget_ms ?levels ?rtl ~algorithm
    ~deadline graph table] — defaults: {!List_scheduling}, no
    validation, no budget, no DVFS levels, no RTL. *)
val request :
  ?scheduler:scheduler ->
  ?validate:bool ->
  ?budget_ms:int ->
  ?levels:Fulib.Dvfs.level array array ->
  ?rtl:bool ->
  algorithm:algorithm ->
  deadline:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  request

(** The canonical binary encoding of a request's semantic content: two
    requests encode alike exactly when {!solve} must answer them alike.
    The serve cache keys responses by its MD5.

    It covers the node count, each source's outgoing edges {e sorted} as
    (dst, delay, size), the per-type memory capacities, the time/cost
    table in row-major node order, and the deadline, algorithm,
    scheduler, validate, budget, DVFS-ladder and rtl fields. Under [rtl]
    it also covers node ops, node names and FU type names, which shape
    the lowered module and its unsupported list; otherwise they are
    cosmetic to the solvers and left out.

    - Edge insertion order is canonicalized away: the solvers sweep the
      smallest-ready-first topological orders, never raw adjacency.
    - Node ids are the instance's identity (responses are node-indexed),
      so node relabelings are deliberately not canonicalized.
    - Ints are zigzag LEB128 varints (one byte below 64), strings are
      length-prefixed and variable-length sections count-prefixed, so the
      encoding is prefix-free: equal encodings mean equal encoded fields.
    - Nothing is formatted as decimal text, and no edge list is rebuilt
      unless a source's edges were inserted out of order.

    The encoding destructures the record without a wildcard, so a new
    request field does not compile until it is encoded or named as
    excluded. It is stable within one build; nothing persists it. *)
val encode : request -> string

type status =
  | Ok  (** a result was produced (and, if validated, audited clean) *)
  | Infeasible  (** no assignment/schedule meets the deadline *)
  | Infeasible_memory
      (** the deadline alone is meetable, but no deadline-feasible
          assignment fits the library's per-FU-type memory capacities
          (see {!Assign.Solve.run} for the exact labelling rule) *)
  | Timeout  (** the request's [budget_ms] was exhausted *)
  | Error of string
      (** a solver raised, or validation found violations (then
          [result] still carries the corrupt artifact and [violations]
          the audit trail) *)

(** DVFS accounting of a leveled response. The result's assignment,
    schedule, cost and config all refer to [expanded], not to the
    request's base table. *)
type dvfs = {
  expanded : Fulib.Table.t;
  mapping : Fulib.Dvfs.mapping;
  energy_before : int;  (** energy of the Phase-1/2 design, pre-reclaim *)
  energy_after : int;  (** energy after slack reclamation (= result cost) *)
  reclaim_moves : int;
}

type response = {
  result : result option;  (** [Some] iff status is [Ok] or a validation
                               [Error]; [None] otherwise *)
  status : status;
  violations : Check.Violation.t list;
      (** audit findings, empty unless validation ran and failed *)
  stats : (string * int) list;
      (** deterministic per-request facts — nodes, cost, makespan,
          config/lower-bound totals, validated fact count; plus
          energy/energy_saved/reclaim_moves/levels on leveled requests.
          Never wall-clock values: a cached response must be
          byte-identical to a fresh solve (timings live in [Obs] spans
          instead). *)
  dvfs : dvfs option;  (** present exactly on leveled requests that
                           produced a result *)
  rtl : Rtl.Backend.summary option;
      (** present exactly on [rtl] requests that produced a result: the
          MD5 digests of the structural module and testbench texts, the
          period, the register/mux/wire interconnect stats, and the
          unsupported-op report. No text and no netlist: a cached
          response holds only these, and a caller that wants the
          artifacts lowers the same schedule with {!Rtl.Backend.lower},
          whose texts the digests identify. On leveled requests the
          lowering refers to the expanded table ({!response_table}). *)
}

(** The table a response's result refers to: [dvfs.expanded] on leveled
    responses, the request's own table otherwise. Use it whenever a
    result is re-evaluated or pretty-printed. *)
val response_table : request -> response -> Fulib.Table.t

(** Run both phases for one request. Never raises: solver exceptions
    become status [Error], an exhausted budget becomes [Timeout], an
    unmeetable deadline becomes [Infeasible]. Deterministic for a
    deterministic request — two calls return structurally identical
    responses, which is what makes the serve-layer cache sound. *)
val solve : request -> response

(** Phase 1 only, for the experiment grids: {!solve}'s [assign] stage on
    the request's own table (its [scheduler], [levels] and [rtl] are
    ignored, and nothing is traced). [None] when no assignment meets the
    deadline or the memory capacities. When validation is on (request
    flag or [Check.Env]), the assignment is audited with
    [Check.Assignment] and the first corrupt artifact raises
    [Check.Violation.Failed] — the grid's historical fail-fast contract,
    unlike {!solve} which collects. Raises [Invalid_argument] when the
    algorithm does not apply to the graph; solver exceptions, an
    exhausted {!Exact} node budget ([Assign.Exact.Budget_exhausted])
    included, propagate. *)
val assign : request -> Assign.Assignment.t option

(** Audit a result with the independent [lib/check] oracles — Phase-1 path
    feasibility and recomputed cost ([Check.Assignment]), Phase-2
    precedence/deadline/occupancy ([Check.Schedule]), configuration
    coverage ([Check.Config]) and, on memory-constrained instances,
    per-type loads and per-instance peak resident data ([Check.Memory]).
    Raises [Check.Violation.Failed] on the first corrupt artifact; returns
    unit on clean results. *)
val validate : Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> result -> unit

(** Smallest feasible deadline for the graph/table (all-fastest critical
    path) — the paper's first timing constraint in every experiment. *)
val min_deadline : Dfg.Graph.t -> Fulib.Table.t -> int

(** The timing constraint the CLI and [Flow.compile] use when none is given:
    1.2x {!min_deadline}, rounded up, as in the experiments' 1.2x rung. *)
val default_deadline : Dfg.Graph.t -> Fulib.Table.t -> int

(** {2 Periodic requests}

    A periodic request is an ordinary synthesis {!request} plus a release
    period: the job repeats every [period] control steps and each release
    must finish within the request's [deadline]. Synthesis itself is
    period-independent — the same solved schedule serves every period —
    which is what lets the serve layer reuse its response cache for
    admission: solve (cached) first, classify per-period after. *)

type periodic = { request : request; period : int }

(** [periodic ?scheduler ?validate ?budget_ms ~algorithm ~period
    ~deadline graph table]. Raises [Invalid_argument] when [period < 1]
    (the deadline is validated by {!Rt.Task.make} at classification). *)
val periodic :
  ?scheduler:scheduler ->
  ?validate:bool ->
  ?budget_ms:int ->
  algorithm:algorithm ->
  period:int ->
  deadline:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  periodic

(** Classify an already-solved {!response} (fresh or cache hit) for the
    periodic request it answers: [Ok]-with-result responses go through
    {!Rt.Task.of_schedule}; [Infeasible]/[Infeasible_memory] become
    [Rt.Verdict.Infeasible_deadline]; [Timeout] and [Error] become
    [Rt.Verdict.Synthesis_error]. Never raises. *)
val periodic_of_response :
  ?heavy_threshold:float ->
  periodic ->
  response ->
  (Rt.Task.analysed, Rt.Verdict.reason) Stdlib.result

(** [analyse_periodic p] — {!solve} the inner request, then
    {!periodic_of_response}. The serve layer solves through its cache and
    calls {!periodic_of_response} itself; [bench/main.exe rt] times this
    uncached path. *)
val analyse_periodic :
  ?heavy_threshold:float ->
  periodic ->
  (Rt.Task.analysed, Rt.Verdict.reason) Stdlib.result

val pp_result :
  graph:Dfg.Graph.t ->
  table:Fulib.Table.t ->
  Format.formatter ->
  result ->
  unit
