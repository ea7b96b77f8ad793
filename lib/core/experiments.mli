(** Drivers that regenerate every table and figure of the paper's evaluation
    (see DESIGN.md §4 for the experiment index).

    The per-node times and costs are drawn with fixed seeds ("randomly
    assigned", as in the paper), so the output is reproducible; the paper's
    absolute numbers are not — only the shape of the comparison is expected
    to hold (see EXPERIMENTS.md). *)

type row = {
  deadline : int;
  costs : (Synthesis.algorithm * int option) list;
      (** system cost per algorithm; [None] = infeasible *)
  config : Sched.Config.t option;
      (** [Min_FU_Scheduling] configuration for the last algorithm's
          assignment (Table 1 uses [Tree_Assign]'s, Table 2
          [DFG_Assign_Repeat]'s, as in the paper) *)
}

type benchmark_report = {
  name : string;
  nodes : int;
  duplicated : int;  (** duplicated nodes in the chosen critical-path tree *)
  rows : row list;
  average_reduction : (Synthesis.algorithm * float) list;
      (** mean % cost reduction vs the greedy baseline *)
}

(** The six timing constraints used for every benchmark: the minimum
    feasible deadline, then five relaxations up to 1.75x. A test seam of
    the tables' deadline column. *)
val deadlines : Dfg.Graph.t -> Fulib.Table.t -> int list

(** Run a benchmark with the given algorithms. [seed] feeds the time/cost
    table generator. The (deadline x algorithm) grid cells are independent
    solves and are evaluated on [pool] (default {!Par.Pool.global}); the
    report is bit-identical for any domain count. Raises [Invalid_argument]
    when [algorithms] is empty or omits {!Synthesis.Greedy} — the baseline
    [average_reduction] is computed against. When [Check.Env.enabled ()]
    (the [HETSCHED_VALIDATE] switch) every grid cell's assignment is
    audited with [Check.Assignment] and every per-row configuration solve
    goes through {!Synthesis.solve}'s full audit; the first corrupt cell
    raises [Check.Violation.Failed] (re-raised deterministically from the
    lowest grid index under any domain count). *)
val run_benchmark :
  ?pool:Par.Pool.t ->
  name:string ->
  seed:int ->
  algorithms:Synthesis.algorithm list ->
  Dfg.Graph.t ->
  benchmark_report

(** The algorithm lists Tables 1 and 2 are built from. *)
val table1_algorithms : Synthesis.algorithm list

val table2_algorithms : Synthesis.algorithm list

(** Stable per-benchmark table seed (deterministic in the name only). *)
val seed_of_name : string -> int

(** Table 1 — tree benchmarks (4-/8-stage lattice, Volterra):
    Greedy vs [Tree_Assign] vs Once vs Repeat. *)
val table1 : unit -> benchmark_report list

(** Table 2 — general DFGs (diffeq, RLS-Laguerre, elliptic):
    Greedy vs Once vs Repeat. *)
val table2 : unit -> benchmark_report list

val render_report : benchmark_report -> string

(** Figures 1–3: the motivating example — a 5-node DFG and 3 FU types;
    prints the time/cost table, a fast-but-costly assignment vs the optimal
    one, and the naive vs minimum-resource schedules/configurations. *)
val motivational : unit -> string

(** Ablation of the smaller-tree rule: expansion of [G] vs its transpose on
    all six benchmarks (tree sizes and resulting Once costs). *)
val ablation_expand : unit -> string

(** Ablation of [DFG_Assign_Repeat]'s fixing order (most-copied first vs
    ascending id vs reversed) on the general-DFG benchmarks. *)
val ablation_order : unit -> string

(** Extension study: simulated-annealing refinement on top of Repeat
    ([Repeat_refined]) across all benchmarks, with the branch-and-bound
    optimum where it is tractable. *)
val extension_refinement : unit -> string

(** Extension study: [Min_FU_Scheduling] vs force-directed scheduling —
    per-benchmark FU configurations and totals for the same (Repeat)
    assignment. *)
val extension_schedulers : unit -> string

(** Extension study: energy vs FU-library richness — under the DVS library
    model ([Workloads.Tables.dvs]), how the achievable energy at a fixed
    relative deadline falls as the number of voltage levels grows from 2 to
    5 (diminishing returns). *)
val extension_library_size : unit -> string

(** Extension study: how close [Min_FU_Scheduling]'s configuration is to
    the exact minimum total FU count (branch-and-bound schedulability), on
    the benchmarks small enough to decide. *)
val extension_min_config : unit -> string

(** Extension study: heuristic ladder — Greedy, Greedy-iterative, Once,
    Repeat, Beam, Repeat-refined costs side by side on the general DFGs at
    a mid deadline. *)
val extension_heuristic_ladder : unit -> string

(** Robustness: re-run Table 2's comparison across 10 table seeds and
    report the mean/min/max % reduction of Repeat vs greedy, showing the
    headline is not a one-seed artefact. *)
val seed_sensitivity : unit -> string

(** Extension study: throughput under a cost budget — sweep energy budgets
    on the 4-stage lattice filter; for each, the fastest assignment within
    budget ([Assign.Dual]), its list-scheduled configuration, and the cycle
    period rotation scheduling reaches on that configuration. *)
val extension_throughput : unit -> string

(** Extension study: rotation scheduling — static schedule length of the
    DAG portion vs the rotated cycle period under the same configuration,
    against the iteration bound, on the cyclic benchmarks. *)
val extension_rotation : unit -> string
