(** Local-search refinement of assignments — an extension beyond the paper.

    Starting from any feasible assignment (typically [DFG_Assign_Repeat]'s),
    simulated annealing over single-node retypes: a random node gets a
    random different type; moves that keep the deadline are accepted when
    they reduce cost, or with probability [exp (-delta / temperature)]
    otherwise; the temperature decays geometrically. The best feasible
    assignment seen is returned, so the result never regresses below the
    starting point.

    Deterministic for a fixed [seed]. Feasibility of each single-node move
    is checked exactly in O(1) per move via path-through-node bounds,
    recomputed lazily after each accepted move. *)

(** [refine g table ~deadline ~seed ?steps ?initial_temperature ?cooling a]
    refines feasible assignment [a] (raises [Invalid_argument] when [a]
    misses the deadline). Defaults: 2000 steps, temperature 10.0,
    cooling 0.995. A test seam of {!repeat_plus}: the tests anneal their
    own starting points through it. *)
val refine :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  seed:int ->
  ?steps:int ->
  ?initial_temperature:float ->
  ?cooling:float ->
  Assignment.t ->
  Assignment.t

(** [repeat_plus g table ~deadline ~seed] — [DFG_Assign_Repeat] followed by
    {!refine}; the strongest heuristic pipeline in this repository. *)
val repeat_plus :
  Dfg.Graph.t ->
  Fulib.Table.t ->
  deadline:int ->
  seed:int ->
  Assignment.t option
