(** Random execution time/cost tables matching the paper's setup: type
    [P1] is the quickest with the highest cost, the last type the slowest
    with the lowest cost, per node, with randomised magnitudes. *)

(** [random_tradeoff rng ~library ~num_nodes] draws, for every node,
    strictly increasing times and strictly decreasing costs across the
    library's types. Times start in [1..3] and grow by [1..3] per type;
    costs end in [1..5] and grow by [2..8] per type going faster. *)
val random_tradeoff :
  Prng.t -> library:Fulib.Library.t -> num_nodes:int -> Fulib.Table.t

(** [for_graph rng ~library g] is {!random_tradeoff} made operation-aware:
    multiplications start slower (base [2..4]) than additions and other
    cheap operations (base [1..2]), as in real FU libraries. *)
val for_graph :
  Prng.t -> library:Fulib.Library.t -> Dfg.Graph.t -> Fulib.Table.t

(** [seeded ~seed g] is the table a seed names for a benchmark graph:
    [for_graph (Prng.create seed) ~library:Fulib.Library.standard3 g]. The
    catalogue, the experiment tables and the CLI's netlist-without-table
    fallback all draw their tables here. *)
val seeded : seed:int -> Dfg.Graph.t -> Fulib.Table.t

(** [dvs rng ~levels g] models a voltage/frequency-scaled FU library
    (levels [V0] fastest ... [V_{levels-1}] slowest): per node, an op-aware
    base time [t0] and base energy [e0] scale as
    [t_k = ceil (t0 * (1 + k/2))] and [e_k = max 1 (e0 / (1 + k/2)^2)] —
    the classic quadratic energy/delay trade of dynamic voltage scaling.
    The returned table carries its own [levels]-type library. *)
val dvs : Prng.t -> levels:int -> Dfg.Graph.t -> Fulib.Table.t

(** [mem_tight ?slack g table] bounds every type's memory capacity at
    [max (largest single node footprint)
         (ceil (total data * slack / num_types))] — an even split of the
    graph's total data with multiplier [slack] (default [1.25], must be
    [>= 1.0]). Tight enough to force data-balancing across types without
    making any single node unplaceable. *)
val mem_tight : ?slack:float -> Dfg.Graph.t -> Fulib.Table.t -> Fulib.Table.t
