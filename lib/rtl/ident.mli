(** Verilog identifier derivation from node names, collision-free.

    [sanitize] maps non-alphanumeric characters to underscores and
    prefixes a leading digit with [n_] — which can collide (["a.b"] and
    ["a_b"] both sanitize to ["a_b"]). [unique] resolves collisions
    deterministically: the first occurrence keeps the sanitized base, a
    later clash gets the smallest [_2], [_3], ... suffix not itself
    taken. {!Netlist_ir} derives its nets through {!node_names}, so a
    module and its testbench always agree on port names. *)

val sanitize : string -> string

(** Sanitize every name, suffixing later collisions so the result array
    is duplicate-free. Deterministic in the input order. *)
val unique : string array -> string array

(** [unique] over the graph's node names, indexed by node. *)
val node_names : Dfg.Graph.t -> string array
