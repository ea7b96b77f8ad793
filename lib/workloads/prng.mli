(** Deterministic pseudo-random numbers (splitmix64).

    The paper assigns execution times and costs "randomly"; a seeded,
    self-contained generator keeps every experiment bit-reproducible across
    runs and machines, independent of the OCaml stdlib's generator. *)

type t = Rng.Prng.t

val create : int -> t

(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)
val int : t -> int -> int

(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)
val int_in : t -> int -> int -> int

(** [float t] is uniform in [\[0, 1)]. *)
val float : t -> float

(** [split t] derives an independently seeded generator; the parent
    advances. *)
val split : t -> t
