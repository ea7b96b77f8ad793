(** Sharded batch dispatch: a bounded request queue drained over a domain
    pool, fronted by the content-addressed {!Cache}.

    A server owns nothing heavyweight — it borrows a {!Par.Pool} (defaulting
    to [Par.Pool.global ()]) and a {!Cache.t}, and adds the batching
    discipline: requests accumulate in a bounded queue and {!drain} fans the
    queued batch over the pool's domains, returning responses in submission
    order (the pool's joins are by index, never completion time).

    Failure isolation: every request is solved under a handler that turns
    any escaped exception into an [Error] response, so one poisoned request
    can never take down the pool or the rest of its batch. Per-request
    [budget_ms] is enforced inside {!Core.Synthesis.solve} (cooperative
    phase-boundary deadlines), so an oversized request times out on its own
    shard while its neighbours complete normally.

    The queue is bounded and never blocks: {!try_submit} returns [false]
    at capacity. The one caller, a {!Daemon} session, either sheds the
    request or drains first. *)

type t

(** Queue capacity used by default: 256 requests per wave. *)
val default_queue_capacity : int

(** [create ?pool ?cache ?queue_capacity ()]. The pool defaults to
    [Par.Pool.global ()]; the cache to a fresh [Cache.create ()] (pass an
    explicit cache to share one across servers, or a capacity-1 cache to
    effectively disable memoization). Raises [Invalid_argument] when
    [queue_capacity < 1]. *)
val create :
  ?pool:Par.Pool.t -> ?cache:Cache.t -> ?queue_capacity:int -> unit -> t

val queue_capacity : t -> int

(** Requests currently queued (not yet drained). *)
val pending : t -> int

(** Drop every queued request unsolved (the daemon does this when the
    client that queued them hangs up). *)
val discard : t -> unit

(** Enqueue a request for the next {!drain}; [false] (and nothing queued)
    at capacity. *)
val try_submit : t -> Core.Synthesis.request -> bool

(** Solve everything queued, in submission order, over the pool; the queue
    is empty afterwards. Cache lookups happen on the solving shard. Graphs
    and tables are immutable once built, so the shards share them with no
    preparation. [serve.drains] counts the non-empty waves. *)
val drain : t -> Core.Synthesis.response list
