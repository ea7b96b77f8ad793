(** LRU memo of synthesis answers, keyed by the exact request encoding.

    Repeated instances dominate real batch traffic — the same filter at the
    same deadline requested again and again. Because {!Core.Synthesis.solve}
    is deterministic and its responses carry no wall-clock values, an
    answer can be memoized under the request's {e content} and replayed
    byte-identically.

    {2 The key}

    {!key} is {!Core.Synthesis.encode}, the request's canonical binary
    encoding, itself: no MD5 and no other digest. The table hashes the
    whole key with [Hashtbl.hash] and compares a candidate with
    [String.equal], so an entry answers only the request whose encoding
    it holds: two requests whose keys share a hash share a bucket, never
    an answer. Two builders assembling the same graph in different edge
    order share one entry; node relabelings, and (under [rtl]) different
    ops, names or FU type names, do not. Keys are stable across processes
    of one build, but not across changes to the encoding: nothing
    persists them.

    {2 Entries}

    An entry holds its key and the answer's wire body,
    {!Jsonl.response_body}: the response line after its [{"id":<id>,]
    prefix. A hit answers a solve line with {!Jsonl.splice}, a byte copy.
    The response record is kept only when an admit line needs it (an
    admission verdict reads the schedule and configuration, not bytes):
    an entry stored for a solve line holds no record, and an admit that
    finds such an entry solves once and attaches the record to it.

    {2 Policy}

    One hash table, one mutex, and one recency list: a hit moves its
    entry to the front, and a store into a full cache drops the entry at
    the back. Eviction is therefore O(1) and exactly least-recently-used
    over the whole cache, and {!length} never exceeds {!capacity}. Only
    [Ok], [Infeasible] and [Infeasible_memory] responses are cached —
    [Timeout] depends on the wall clock and [Error] on transient state,
    neither is content. Capacity defaults to {!default_entries}; no
    environment variable is read here. Every operation takes the mutex,
    so all are safe to call from concurrent pool tasks; callers encode
    the key, solve and serialize outside it. Hits, misses, stores and
    evictions bump the [serve.cache.hit], [serve.cache.miss],
    [serve.cache.store] and [serve.cache.evict] {!Obs.Counter}s. *)

type t

(** Capacity used when [entries] is not given: 512. *)
val default_entries : int

(** 8. Ignored, like [create]'s [shards]: both remain only for callers
    written when the cache was split into shards. *)
val default_shards : int

(** [create ?entries ()] — an empty cache holding at most [entries]
    answers (default {!default_entries}). [shards] is ignored. Raises
    [Invalid_argument] when [entries < 1]. *)
val create : ?entries:int -> ?shards:int -> unit -> t

(** [capacity] and [length] are test seams, kept for a live [stats]
    line to report occupancy. *)
val capacity : t -> int

(** Live entries, at most {!capacity}. *)
val length : t -> int

(** The cache key of a request: {!Core.Synthesis.encode}. *)
val key : Core.Synthesis.request -> string

(** [find t key ~record] — the body and, when kept, the record stored
    under [key], made the most recently used. With [record] only an entry
    holding the record answers. Counts a [serve.cache.hit], or a
    [serve.cache.miss] when it returns [None]. *)
val find :
  t -> string -> record:bool -> (string * Core.Synthesis.response option) option

(** [store t key ~body ~record resp] memoizes [body], the
    {!Jsonl.response_body} of [resp], under [key] when [resp] is
    cacheable ([Ok]/[Infeasible]/[Infeasible_memory]), evicting the
    least-recently-used entry when the cache is full. [record] keeps
    [resp] too. A key already present keeps its body and its recency;
    [record] attaches [resp] to it when it holds no record yet. *)
val store :
  t -> string -> body:string -> record:bool -> Core.Synthesis.response -> unit

(** {2 The record entry points}

    [bench/e2e]'s in-process replay still stores and probes response
    records, so these keep their old types on the same table. Nothing
    else calls them. *)

(** {!key}, under its old name. *)
val digest : Core.Synthesis.request -> string

(** [find_digest t key] — {!find} with [~record:true], returning the
    record. *)
val find_digest : t -> string -> Core.Synthesis.response option

(** [store_digest t key resp] — {!store} with [~record:true] and the
    body rendered from [resp]. *)
val store_digest : t -> string -> Core.Synthesis.response -> unit
