(** Cyclic-DFG analysis: cycle period, retiming, iteration bound.

    The paper models a DSP loop as a cyclic DFG whose static schedule repeats
    every iteration; its assignment and scheduling phases operate on the DAG
    portion, whose length is the {e cycle period}. This module supplies the
    surrounding machinery: computing the cycle period under given node times,
    retiming the delays to shrink it (node-weighted adaptation of
    Leiserson–Saxe), and the iteration bound that limits any retiming. *)

(** [cycle_period g ~time] is the longest zero-delay path under node
    execution times [time v] — the minimum schedule length of one iteration
    with unbounded resources. *)
val cycle_period : Graph.t -> time:(int -> int) -> int

(** A retiming assigns an integer lag to every node. *)
type retiming = int array

(** [is_legal g r] checks that every edge [u -> v] keeps a non-negative
    retimed delay [d + r.(v) - r.(u)]. A test seam of {!apply}'s guard. *)
val is_legal : Graph.t -> retiming -> bool

(** [apply g r] rebuilds the graph with retimed delays. Raises
    [Invalid_argument] if [r] is illegal or creates a zero-delay cycle. *)
val apply : Graph.t -> retiming -> Graph.t

(** [feasible_retiming g ~time ~period] attempts to find a retiming whose
    cycle period is at most [period] (the FEAS relaxation: repeatedly push a
    delay into every node whose combinational depth exceeds the target).
    A test seam of {!min_cycle_period}'s search step. *)
val feasible_retiming :
  Graph.t -> time:(int -> int) -> period:int -> retiming option

(** [min_cycle_period g ~time] binary-searches the smallest achievable cycle
    period and a retiming attaining it. *)
val min_cycle_period : Graph.t -> time:(int -> int) -> int * retiming

(** [iteration_bound g ~time] is [max] over directed cycles of
    (total execution time / total delay) — the theoretical lower limit on
    the cycle period of any retiming/unfolding. Computed by binary search
    with Bellman–Ford positive-cycle detection to within [1e-6]; [0.] when
    the graph has no cycle. *)
val iteration_bound : Graph.t -> time:(int -> int) -> float
