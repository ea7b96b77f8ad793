(** Loop unfolding (unrolling) of cyclic DFGs — the transformation the
    paper's cited scheduling line (Chao–Sha) combines with retiming.

    Unfolding by factor [f] schedules [f] consecutive loop iterations as one
    super-iteration: node [v] becomes copies [v#0 .. v#f-1], and an edge
    [u -> v] with delay [d] becomes, for each copy [i], the edge
    [u#i -> v#((i + d) mod f)] with delay [(i + d) / f]. Total delay around
    any cycle is preserved per original iteration; zero-delay acyclicity is
    preserved, so the result is a valid DFG. Unfolding exposes
    inter-iteration parallelism: the cycle period {e per original iteration}
    approaches the iteration bound as [f] grows.

    Copy [i] of node [v] has id [v * f + i], so a time/cost table carries
    across by giving that copy node [v]'s row. *)

(** [unfold g ~factor] with [factor >= 1]; copies are named ["name#i"]. *)
val unfold : Graph.t -> factor:int -> Graph.t
