(** Register lifetime analysis and allocation for a schedule.

    The paper's reference line (Ito–Parhi, {e Register minimization in
    cost-optimal synthesis of DSP architectures}) treats register count as
    the other resource a schedule consumes. For a static schedule, the
    value a node produces must be held from the step it finishes until the
    last zero-delay consumer has {e started} (consumers latch operands at
    start); values feeding only delayed edges live to the end of the
    iteration (they cross into the next one through a register file).

    The minimum register count equals the maximum number of simultaneously
    live values, and left-edge allocation attains it. *)

type lifetime = {
  node : int;
  birth : int;  (** first step the value occupies a register *)
  death : int;  (** first step it no longer does (exclusive) *)
}

(** [lifetimes g table s] — one entry per node that produces a live value
    (nodes with no consumers at all produce the design's outputs and live
    to the schedule end). Entries with [birth >= death] (a value consumed
    the moment it appears) are dropped. {!max_live} and {!allocate} run
    over them; a test seam for the lifetime tests. *)
val lifetimes : Dfg.Graph.t -> Fulib.Table.t -> Schedule.t -> lifetime list

(** Maximum number of simultaneously live values. *)
val max_live : Dfg.Graph.t -> Fulib.Table.t -> Schedule.t -> int

(** [allocate g table s] assigns each live value a register by the
    left-edge algorithm; returns [(register of each lifetime, register
    count)] with the count equal to {!max_live}. *)
val allocate :
  Dfg.Graph.t -> Fulib.Table.t -> Schedule.t -> (lifetime * int) list * int
