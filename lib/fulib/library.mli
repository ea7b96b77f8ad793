(** Catalogues of heterogeneous functional-unit types.

    A library is an ordered set of FU types; the convention throughout the
    repository (and the paper) is that lower-indexed types are faster and
    more expensive. Types are referred to by dense index [0 .. K-1].

    Each type optionally carries a local-memory capacity bounding the total
    data resident on FUs of that type (edge data sizes, see
    {!Dfg.Graph.edge}). The default is {!unbounded_mem}, under which every
    pre-memory-model result is unchanged. *)

type t

(** Sentinel capacity meaning "no memory bound" ([max_int]). *)
val unbounded_mem : int

(** [make names] builds a library from type names (e.g. [[|"P1"; "P2"|]]).
    [?mem_capacity] gives each type's local-memory capacity (default
    unbounded). Raises [Invalid_argument] when empty, when the capacity
    array length mismatches, or when a capacity is negative. *)
val make : ?mem_capacity:int array -> string array -> t

val num_types : t -> int
val type_name : t -> int -> string

(** [mem_capacity t k] is type [k]'s local-memory capacity
    ({!unbounded_mem} when unconstrained). *)
val mem_capacity : t -> int -> int

(** Per-type capacities as a flat array, indexed by type. Owned by the
    library — treat as read-only. *)
val mem_capacities : t -> int array

(** [mem_bounded t] is [true] when at least one type has a finite
    capacity. *)
val mem_bounded : t -> bool

(** [with_mem_capacity t caps] is [t] with capacities replaced. *)
val with_mem_capacity : t -> int array -> t

(** The paper's three-type library [P1] (fastest, most expensive), [P2],
    [P3] (slowest, cheapest). *)
val standard3 : t
