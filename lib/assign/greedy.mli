(** Greedy baselines.

    {!solve} reimplements the comparator of the paper's Tables 1–2 — the
    simple heuristic idea of Chang–Wang–Parhi (GLSVLSI'96): start from the
    all-fastest assignment and sweep the nodes once, in node order, giving
    each node the cheapest type that keeps every critical path within the
    deadline given the other nodes' current types. One pass, arbitrary
    order, no backtracking: early nodes consume the slack first — exactly
    the kind of "simple heuristic [that] may not produce the good result"
    the paper describes.

    {!solve_iterative} is a stronger variant we add as an extension (and as
    an ablation of the baseline's weaknesses): it repeats best-single-move
    improvement to a local optimum, scoring moves by cost reduction per unit
    of critical-path slack consumed. Feasibility of a single-node retype is
    checked exactly in O(1) using [longest_to + longest_from - t]. *)

val solve :
  Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> Assignment.t option

val solve_iterative :
  Dfg.Graph.t -> Fulib.Table.t -> deadline:int -> Assignment.t option
