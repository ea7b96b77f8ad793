(** Fixed log-scale histograms registered by name — the latency primitive.

    A histogram is {!num_buckets} independent atomic cells over a
    power-of-two scale: bucket 0 counts observations below 1 ns, bucket
    [i >= 1] counts observations in [[2^(i-1), 2^i)] ns. {!observe} is one
    log2 plus a fetch-and-add on the owning cell — lock-free, allocation
    free, safe from concurrent domains, and mergeable because addition
    commutes. Like {!Counter}, histograms are process-global and live in a
    registry keyed by name.

    Quantile estimates come from the bucket counts: the reported value for
    a quantile is the geometric midpoint of the bucket holding the ranked
    observation, so the estimate is within a factor of [sqrt 2] of the
    true value — plenty for p50/p99 latency summaries over a scale that
    spans nanoseconds to minutes. *)

type t

val num_buckets : int

(** [make name] registers (or finds) the histogram [name]. Idempotent:
    the same name always yields the same cells. *)
val make : string -> t

(** [observe h ns] — record one observation of [ns] nanoseconds.
    Negative, zero and non-finite values land in bucket 0 and contribute
    nothing to {!sum}. *)
val observe : t -> float -> unit

(** Index of the bucket a value lands in. *)
val bucket_of_ns : float -> int

(** Exclusive upper bound of bucket [i] in ns. *)
val bucket_upper : int -> float

(** Total observations. *)
val count : t -> int

(** Sum of all observed values, in ns (truncated to whole ns each). *)
val sum : t -> float

val mean : t -> float

(** Snapshot of the bucket counts (a fresh array, length {!num_buckets}). *)
val buckets : t -> int array

(** [quantile h q] with [q] in [[0, 1]] — e.g. [quantile h 0.99] is the
    p99 estimate in ns ([q = 0.0] the minimum estimate, [q = 1.0] the
    maximum). An {e empty} histogram returns the sentinel [0.0] — a
    value no non-empty histogram can report, since the smallest
    representative value is bucket 0's geometric midpoint (0.5 ns) — so
    [quantile h q = 0.0] is a definitive "no observations yet" test.
    Raises [Invalid_argument] when [q] is outside [[0, 1]] (NaN
    included), {e also} on an empty histogram: the argument is validated
    before the emptiness check. *)
val quantile : t -> float -> float

(** {!quantile} over a raw bucket snapshot — diff two {!buckets} arrays
    to get the quantiles of just the observations made in between. Same
    empty sentinel and validation order as {!quantile} (an all-zero
    array is an empty histogram). *)
val quantile_of_buckets : int array -> float -> float

(** [merge_into ~src ~dst] adds [src]'s counts and sum into [dst]
    (atomically per cell; [src] is unchanged). *)
val merge_into : src:t -> dst:t -> unit

(** Zero one histogram. *)
val reset : t -> unit

(** Look a histogram up by name; [None] when never registered. *)
val value_of : string -> t option

(** All registered histograms, sorted by name. *)
val snapshot : unit -> (string * t) list
