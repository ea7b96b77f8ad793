(** Per-node execution time and cost tables.

    [time ~node ~ftype] and [cost ~node ~ftype] give node [node]'s execution
    time (control steps, at least 1) and execution cost (non-negative energy
    / reliability / monetary units) on FU type [ftype]. *)

type t

(** Largest time or cost a table holds: [2^32]. The solvers add cells
    without overflow checks; under this bound any [n < 2^30] cells sum
    below [max_int], so a sum never wraps and never reaches the
    [max_int] that the DPs read as "infeasible". *)
val max_cell : int

(** [make ~library ~time ~cost] with [time.(v).(k)] / [cost.(v).(k)] indexed
    node-major. Raises [Invalid_argument] on dimension mismatches, times
    < 1, negative costs, or a time or cost above {!max_cell}. The rows are
    copied into the flat views below; the table keeps no reference to
    [time] or [cost]. *)
val make : library:Library.t -> time:int array array -> cost:int array array -> t

(** [of_rows ~library ~time:(cells, ends) ~cost:(cells, ends)] is {!make}
    with each matrix given as its cells in row order and the end of each
    row in them: row [v] is [cells.(ends.(v - 1)) .. cells.(ends.(v) - 1)],
    row 0 starting at 0. The same checks in the same order, with the same
    messages; a decoder that reads every row into one array builds no row
    arrays. The arrays are read, not kept. *)
val of_rows :
  library:Library.t -> time:int array * int array -> cost:int array * int array -> t

val library : t -> Library.t
val num_nodes : t -> int
val num_types : t -> int

(** [time t ~node ~ftype] and [cost t ~node ~ftype] raise
    [Invalid_argument] when [node] or [ftype] is out of range; a type past
    the last never reads the next node's row. *)
val time : t -> node:int -> ftype:int -> int

val cost : t -> node:int -> ftype:int -> int

(** Fastest achievable execution time of a node, and a type attaining it
    (smallest index on ties). *)
val min_time : t -> int -> int

val min_time_type : t -> int -> int

(** Cheapest cost of a node, and a type attaining it. *)
val min_cost : t -> int -> int

val min_cost_type : t -> int -> int

(** {2 Flat views}

    A table stores only flat int arrays: the times and costs with
    [node * num_types + ftype] indexing, plus per-node minimum rows. Every
    constructor ({!make}, {!with_mem_capacity}) builds
    them up front, so a table is immutable once built and safe to share
    across domains (see [Par.Pool]) with no preparation. The returned
    arrays are owned by the table: treat them as read-only. These are what
    the DP kernels iterate over — one bounds-checked load per cell, and no
    per-call closure allocation. *)

(** Does nothing: tables have nothing lazy left to force. Kept for
    callers that still call it. *)
val preheat : t -> unit

val flat_times : t -> int array
val flat_costs : t -> int array

(** [min_times_arr t].(v) = {!min_time}[ t v]; likewise for costs. *)
val min_times_arr : t -> int array

val min_costs_arr : t -> int array

(** Per-type local-memory capacities of the table's library, indexed by
    type ({!Library.unbounded_mem} when unconstrained). Owned by the
    library — treat as read-only. *)
val mem_capacities : t -> int array

(** [mem_bounded t] is [true] when at least one type has a finite
    capacity (see {!Library.mem_bounded}). *)
val mem_bounded : t -> bool

(** [with_mem_capacity t caps] is [t] with its library's per-type
    capacities replaced; times and costs are unchanged (and shared with
    [t]). *)
val with_mem_capacity : t -> int array -> t

(** Render as the paper's Figure-1-style table. [names.(v)] labels row [v]. *)
val pp : names:string array -> Format.formatter -> t -> unit
