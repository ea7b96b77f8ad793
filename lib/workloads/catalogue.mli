(** The resident benchmark catalogue: the named instances a serving
    process resolves ["benchmark"] request fields against.

    The nine {!Filters.extended} graphs are built once per process, on
    first use, and kept; every lookup of a name returns the same graph.
    The seeded table of a (name, seed) pair is [Tables.seeded ~seed g],
    so an instance from here is structurally identical to one built from
    scratch, and every response computed from it is too.

    Tables are memoized per (name, seed) in a bounded first-in first-out
    memo of {!table_slots} entries: a stream that repeats instances (the
    same filter at the same seed, the hot path of a cache-fronted daemon)
    neither rebuilds graphs nor redraws tables, and a stream of distinct
    seeds costs one table draw per request and holds at most
    {!table_slots} tables.

    Graphs and tables are immutable once built, so concurrent solves share
    them read-only. All functions are safe to call from several
    domains. *)

(** The catalogue's names, in {!Filters.extended} order. *)
val names : unit -> string list

(** [lookup name ~seed] — the resident graph and its seeded table, [None]
    for names outside the catalogue. Has the type of [Serve.Jsonl.lookup],
    so it plugs straight into the serving front ends. *)
val lookup : string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option

(** Capacity of the table memo: 64. {!table_slots} and {!memoized} are
    test seams: the tests watch the memo fill and stay bounded. *)
val table_slots : int

(** Tables currently memoized (at most {!table_slots}). *)
val memoized : unit -> int
