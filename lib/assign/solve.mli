(** The Phase-1 algorithm catalogue and its single dispatch point.

    Every consumer of the assignment solvers — the synthesis pipeline,
    the experiment grids, the batch server, the CLI — used to carry its
    own [match] over the algorithm variant. This module owns the variant
    and the one dispatcher they all share; adding an algorithm means
    extending exactly one match. *)

type algorithm =
  | Greedy  (** baseline of Chang–Wang–Parhi (one-pass) *)
  | Greedy_iterative
      (** extension: iterated best-single-move greedy (stronger baseline) *)
  | Tree  (** [Tree_Assign]; requires a forest in either orientation *)
  | Once  (** [DFG_Assign_Once] *)
  | Repeat  (** [DFG_Assign_Repeat] — the paper's recommendation *)
  | Repeat_search
      (** extension: [Repeat] with a per-round parallel candidate search
          over the remaining duplicated nodes ([Dfg_assign.repeat_search]) *)
  | Repeat_refined
      (** extension: [DFG_Assign_Repeat] followed by simulated-annealing
          refinement ([Local_search], fixed seed) *)
  | Beam  (** extension: beam search (width 16) over topological order *)
  | Exact  (** branch-and-bound optimum; small graphs only *)

(** Display name in the paper's notation, e.g. ["DFG_Assign_Repeat"]. *)
val name : algorithm -> string

(** Parse an algorithm name: case-insensitive, accepting both the display
    name (["DFG_Assign_Repeat"]) and the bare constructor (["repeat"]). An
    unknown name yields a structured error message naming the offending
    string and every accepted spelling (["greedy (Greedy), ..."]) — what
    the JSONL layer surfaces to the user. *)
val of_name_result : string -> (algorithm, string) result

(** Every accepted spelling, as {!of_name_result}'s error lists it. *)
val catalogue : unit -> string

(** Every algorithm, in ladder order (weakest baseline first): what
    {!catalogue} lists and the name parsers search. A test seam for the
    tests that sweep every algorithm. *)
val all : algorithm list

(** [applicable algorithm g] is [Ok ()] when [algorithm] can run on [g],
    else an error naming the algorithm and the reason. Only {!Tree} has a
    precondition: every node has at most one zero-delay predecessor, or
    every node has at most one zero-delay successor. *)
val applicable : algorithm -> Dfg.Graph.t -> (unit, string) result

(** [dispatch ?budget algorithm g table ~deadline] runs the selected
    Phase-1 solver; [None] when no assignment meets the deadline. The one
    place the variant is matched. [budget] bounds {!Exact}'s search-tree
    node expansions (ignored by every other algorithm; see
    {!Exact.solve}) — exceeding it raises {!Exact.Budget_exhausted}.
    [Tree] raises [Invalid_argument] when the graph is not a forest in
    either orientation ({!applicable} says so beforehand). *)
val dispatch :
  ?budget:int ->
  algorithm ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  Assignment.t option

(** Phase-1 outcome with the memory dimension made explicit.
    [Infeasible_memory] means per-FU-type memory capacity is what stands
    in the way: either the solver's result violated the aggregate load
    bound, or it failed outright on an instance whose deadline the
    all-fastest relaxation meets. *)
type verdict =
  | Feasible of Assignment.t
  | Infeasible
  | Infeasible_memory

(** [run ?budget algorithm g table ~deadline] is {!dispatch} plus the
    memory verdict: every [Feasible] assignment is guaranteed
    memory-feasible ({!Assignment.mem_feasible}), even for solvers without
    native memory pruning. On unconstrained instances this is exactly
    [dispatch] (never [Infeasible_memory]). *)
val run :
  ?budget:int ->
  algorithm ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  verdict
