(** Monotone counters registered by name.

    A counter is one atomic int cell; {!incr}/{!add} are single
    fetch-and-add bumps with no branch on any tracing flag, cheap enough
    for solver hot paths (they count units of work — DP rows, re-solves,
    queue operations — not inner-loop iterations). Counters are
    process-global: domain-safe, deterministic under any pool width for
    deterministic workloads, and snapshotted into the trace
    ({!Trace.snapshot}) and the [metrics] subcommand. *)

type t

(** [make name] registers (or finds) the counter [name]. Idempotent: the
    same name always yields the same cell. Call it once at module
    initialisation, not per bump. *)
val make : string -> t

val incr : t -> unit

(** [add c n] bumps by [n] ([n < 0] is allowed but breaks monotonicity —
    don't). *)
val add : t -> int -> unit

val value : t -> int

(** Look a counter's value up by name; [None] when never registered. *)
val value_of : string -> int option

(** All registered counters, sorted by name. *)
val snapshot : unit -> (string * int) list

(** Zero every registered counter (tests and the bench harness). *)
val reset_all : unit -> unit
