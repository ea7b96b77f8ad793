(** Content-addressed LRU memo over synthesis responses.

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

    {2 Policy}

    One hash table keyed by digest, one mutex, and one recency list: a
    hit moves its entry to the front, and a store into a full cache drops
    the entry at the back. Eviction is therefore O(1) and exactly
    least-recently-used over the whole cache, and {!length} never exceeds
    {!capacity}. Only [Ok], [Infeasible] and [Infeasible_memory] responses
    are cached — [Timeout] depends on the wall clock and [Error] on
    transient state, neither is content. Capacity defaults to
    {!default_entries}; no environment variable is read here. Every
    operation takes the mutex, so all are safe to call from concurrent
    pool tasks; {!solve} computes the digest and the response outside it.
    Hits, misses, stores and evictions bump the [serve.cache.hit],
    [serve.cache.miss], [serve.cache.store] and [serve.cache.evict]
    {!Obs.Counter}s. *)

type t

(** Capacity used when [entries] is not given: 512. *)
val default_entries : int

(** 8. Ignored, like [create]'s [shards]: both remain only for callers
    written when the cache was split into shards. *)
val default_shards : int

(** [create ?entries ()] — an empty cache holding at most [entries]
    responses (default {!default_entries}). [shards] is ignored. Raises
    [Invalid_argument] when [entries < 1]. *)
val create : ?entries:int -> ?shards:int -> unit -> t

val capacity : t -> int

(** Live entries, at most {!capacity}. *)
val length : t -> int

val clear : t -> unit

(** Canonical content digest of a request (hex, stable across processes). *)
val digest : Core.Synthesis.request -> string

(** [find t req] — the memoized response, made the most recently used;
    counts a [serve.cache.hit] or [serve.cache.miss]. *)
val find : t -> Core.Synthesis.request -> Core.Synthesis.response option

(** {!find} keyed by a precomputed {!digest}: the pure probe (lock,
    hashtable lookup, recency bump). Callers holding a request's digest —
    repeated lookups of one hot request, or the [serve/cache-hot] bench
    row timing the cache itself — skip re-serializing the instance. *)
val find_digest : t -> string -> Core.Synthesis.response option

(** [store_digest t key resp] memoizes a cacheable response
    ([Ok]/[Infeasible]/[Infeasible_memory]) under a precomputed {!digest},
    evicting the least-recently-used entry when the cache is full;
    [Timeout] and [Error] responses, and keys already present, are
    ignored. *)
val store_digest : t -> string -> Core.Synthesis.response -> unit

(** [solve t req] — {!find}, falling back to {!Core.Synthesis.solve} +
    {!store_digest} (the digest is computed once and reused). The returned
    response is structurally identical whether it was served from the
    cache or computed fresh. *)
val solve : t -> Core.Synthesis.request -> Core.Synthesis.response
