(** Fixed-size domain pool with deterministic, order-preserving joins.

    The experiment grid, Pareto sweeps, Repeat's candidate search and batch
    workload generation are all embarrassingly parallel: independent (graph,
    table, deadline) subproblems whose results are combined by index. This
    pool fans such work out over OCaml 5 domains through one combinator,
    {!map_array}, while keeping a hard determinism contract:

    - results come back in submission order (joins are by index, never by
      completion time);
    - with a pool of [domains = 1] no domain is ever spawned and
      {!map_array} degrades to a plain sequential loop — the parallel and
      sequential paths are bit-identical for deterministic task functions;
    - exceptions raised by tasks are captured per index and the one with the
      {e lowest index} is re-raised after the whole batch has drained, so
      failure behaviour does not depend on scheduling either.

    Task functions must be safe to run concurrently: they must not mutate
    shared solver state (clone contexts/kernels per task; graphs and tables
    are immutable once built and need no preparation) and must draw
    randomness only from per-task PRNG streams split by index
    ([Rng.Prng.split]).

    Nesting: calling {!map_array} from inside a pool task runs the inner
    batch sequentially on the calling domain (same results, no deadlock);
    {e creating} a pool inside a pool task raises {!Nested_pool}. The pool
    executes one batch at a time; concurrent submissions queue. *)

type t

(** Raised by {!create}, {!with_pool}, {!set_global_domains} and
    {!shutdown} when called from inside a pool task. *)
exception Nested_pool

(** Resolve the domain count from the environment. The value of
    [HETSCHED_DOMAINS] is trimmed of surrounding whitespace and parsed as
    an integer; every case resolves to a documented count and none raises:

    - unset, empty, whitespace-only or unparsable (e.g. ["junk"]) →
      [Domain.recommended_domain_count ()];
    - [0] or negative → [1] (the exact sequential fallback);
    - greater than [128] → [128] (the pool's hard cap);
    - anything else → that value.

    [?getenv] exists for tests. *)
val domains_from_env : ?getenv:(string -> string option) -> unit -> int

(** [create ?domains ()] spawns [domains - 1] worker domains (the
    submitting domain participates in every batch). [domains] defaults to
    {!domains_from_env}; [domains = 1] spawns nothing and is the exact
    sequential fallback. Raises [Invalid_argument] when [domains < 1]. *)
val create : ?domains:int -> unit -> t

(** Number of domains the pool computes with (including the submitter). *)
val domain_count : t -> int

(** Join the worker domains. The pool must not be used afterwards
    ([Invalid_argument]); shutting down twice is a no-op. {!with_pool}
    ends with it; a test seam for the tests that build pools by hand. *)
val shutdown : t -> unit

(** [with_pool ?domains f] runs [f] with a fresh pool and always shuts it
    down afterwards. *)
val with_pool : ?domains:int -> (t -> 'a) -> 'a

(** The process-wide pool, created on first use with {!domains_from_env}.
    Library entry points default to this pool. Inside a pool task this
    returns a sequential pool instead of spawning. *)
val global : unit -> t

(** Replace the global pool with one of [domains] domains (the previous one
    is shut down). For CLI flags like [bench/main.exe --domains 4]. *)
val set_global_domains : int -> unit

(** [true] while the calling domain is executing a pool task: the guard
    behind {!Nested_pool}, exposed as a test seam. *)
val in_task : unit -> bool

(** [map_array t f arr] is [Array.map f arr] with the applications spread
    over the pool's domains; element [i] of the result is always
    [f arr.(i)]. *)
val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
