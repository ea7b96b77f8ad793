(** Functional simulation of DFG stream semantics.

    A DFG denotes a synchronous dataflow program: at iteration [i] every
    node fires once, consuming for each incoming edge the producer's value
    from iteration [i - delay] (values from before iteration 0 are the
    edge's {e initial values}, taken as 0 here) and producing one value.
    Nodes with no incoming edges are sources fed from input streams.

    Operation semantics on [int]: [add] sums its operands, [sub] subtracts
    the rest from the first, [mul] multiplies, [comp] is [1] when the first
    operand is strictly smaller than the minimum of the rest (0 with fewer
    than two operands), and any other operation XOR-folds — an arbitrary
    but fixed time-invariant function, which is all the equivalence
    arguments need.

    The module exists to check graph transformations {e semantically}:
    unfolding preserves streams exactly (copy [j] of node [v] at
    super-iteration [i] equals [v] at iteration [i * f + j]), and
    pipelining retimings reproduce the original streams after their lag
    (node [v] with cumulative lag [r <= 0] sees its stream delayed by
    [-r] iterations, reading 0 during the prologue). *)

(** [apply op operands] is one firing of an operation on concrete values —
    the single-step semantics {!run} iterates, exposed so a cycle-accurate
    hardware model ({!Rtl.Sim}) can share it verbatim and make functional
    differences impossible by construction: any co-simulation divergence
    is then a structural or timing bug, never an arithmetic one. *)
val apply : string -> int list -> int

(** [run g ~iterations ~input] returns [out] with [out.(v).(i)] the value
    node [v] produces at iteration [i]. [input v i] feeds source node [v]
    at iteration [i]; non-source nodes never consult it. *)
val run :
  Graph.t -> iterations:int -> input:(int -> int -> int) -> int array array
