(** Content-addressed LRU memo over synthesis responses, sharded by
    digest prefix.

    Repeated instances dominate real batch traffic — the same filter at the
    same deadline requested again and again. Because {!Core.Synthesis.solve}
    is deterministic and its responses carry no wall-clock values, a
    response can be memoized under a digest of the request's {e content}
    and replayed byte-identically.

    {2 The digest}

    {!digest} is the MD5 of {!Core.Synthesis.encode}, the request's
    canonical binary encoding, in hex. Two builders assembling the same
    graph in different edge order collide into one cache entry; node
    relabelings, and (under [rtl]) different ops, names or FU type names,
    do not. Digests are stable across
    processes of one build, but not across changes to the encoding:
    nothing persists them.

    {2 Sharding}

    The cache is split into [shards] independent shards, each with its own
    mutex, hash table, LRU clock and capacity slice
    ([ceil (entries / shards)]). A digest's shard is its leading byte
    modulo the shard count, so concurrent lookups of distinct digests
    contend only when they collide on a shard — with the default 8 shards
    a 4–8 domain pool hammering a hot cache almost never queues on a lock.
    A [shards:1] cache is byte-for-byte the old single-mutex behaviour;
    eviction is least-recently-used {e per shard}, so at capacities small
    enough to evict, which entry goes differs from a single global LRU
    (hit/miss behaviour below capacity is identical for any shard
    count).

    {2 Policy}

    Only [Ok], [Infeasible] and [Infeasible_memory] responses are cached —
    [Timeout] depends on the wall clock and [Error] on transient state,
    neither is content. Capacity defaults to {!default_entries} and the
    shard count to {!default_shards}; no environment variable is read
    here. All operations are mutex-guarded per shard and safe to call from concurrent pool tasks. Hits, misses, stores and
    evictions bump both the aggregate [serve.cache.*] {!Obs.Counter}s and
    the owning shard's [serve.cache.shard<i>.*] counters. *)

type t

(** Capacity used when [entries] is not given: 512. *)
val default_entries : int

(** Shard count used when [shards] is not given: 8. *)
val default_shards : int

(** [create ?entries ?shards ()] — an empty cache holding at most
    [entries] responses (default {!default_entries}) across [shards]
    shards (default {!default_shards}). The effective shard count is
    clamped to [min shards (min 64 entries)], so every shard owns
    at least one slot. Raises [Invalid_argument] when [entries < 1] or
    [shards < 1]. *)
val create : ?entries:int -> ?shards:int -> unit -> t

val capacity : t -> int

(** Effective number of shards. *)
val shard_count : t -> int

(** Live entries across all shards. *)
val length : t -> int

(** Live entries per shard, indexed by shard. *)
val shard_lengths : t -> int array

val clear : t -> unit

(** Canonical content digest of a request (hex, stable across processes). *)
val digest : Core.Synthesis.request -> string

(** The shard a digest routes to (its leading byte mod {!shard_count}). *)
val shard_of_digest : t -> string -> int

(** [find t req] — the memoized response, bumping its recency on the
    owning shard; counts a [serve.cache.hit] or [serve.cache.miss] (and
    the shard's own cell). *)
val find : t -> Core.Synthesis.request -> Core.Synthesis.response option

(** {!find} keyed by a precomputed {!digest}: the pure probe (shard pick,
    lock, hashtable lookup, recency bump). Callers holding a request's
    digest — repeated lookups of one hot request, or the
    [serve/cache-hot-*] bench rows timing the shards themselves — skip
    re-serializing the instance. *)
val find_digest : t -> string -> Core.Synthesis.response option

(** [store_digest t key resp] memoizes a cacheable response
    ([Ok]/[Infeasible]/[Infeasible_memory]) under a precomputed {!digest},
    evicting the owning shard's least-recently-used entry when its slice
    is full; [Timeout] and [Error] responses are ignored. *)
val store_digest : t -> string -> Core.Synthesis.response -> unit

(** [solve t req] — {!find}, falling back to {!Core.Synthesis.solve} +
    {!store_digest} (the digest is computed once and reused). The returned
    response is structurally identical whether it was served from the
    cache or computed fresh. *)
val solve : t -> Core.Synthesis.request -> Core.Synthesis.response
