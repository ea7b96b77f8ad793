(** The paper's NP-completeness reduction (Theorem 4.1) as an executable
    artefact: a 0-1 Knapsack decision instance becomes a two-type
    heterogeneous-assignment instance on a simple path.

    For each item [i] with value [a_i] and weight [w_i], node [v_i] may run
    on type [Select] (time [w_i + 1], cost [M - a_i]) or type [Skip] (time
    [1], cost [M]), with [M = 1 + max_i a_i]. Selecting a subset [S] then
    costs [n*M - sum of values in S] and takes [n + total weight of S] time,
    so:

    Knapsack(capacity [W], target value [V]) is a yes-instance iff the path
    instance admits an assignment of makespan at most [n + W] and cost at
    most [n*M - V]. *)

type instance = {
  table : Fulib.Table.t;  (** two-type table, node order = path order *)
  deadline : int;  (** [n + capacity] *)
  big : int;  (** the constant [M] *)
}

val of_knapsack : items:Knapsack.item array -> capacity:int -> instance

(** Cost threshold equivalent to achieving total value [target_value]. *)
val cost_threshold : instance -> target_value:int -> int

(** Decide the knapsack instance by solving the assignment instance with
    [Path_Assign] ({!Assign.Tree_assign} on {!Path_assign.chain}) — the
    round-trip used by the tests. *)
val decide_via_assignment :
  items:Knapsack.item array -> capacity:int -> target_value:int -> bool

(** Map a path assignment back to the chosen item subset (type [0] =
    selected). *)
val subset_of_assignment : Assign.Assignment.t -> bool array
