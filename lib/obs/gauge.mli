(** Last-value gauges registered by name (pool width, instance sizes).
    Same registry discipline as {!Counter}, but {!set} overwrites instead
    of accumulating. *)

type t

(** Idempotent by name, like {!Counter.make}. *)
val make : string -> t

val set : t -> int -> unit
val value : t -> int
val value_of : string -> int option
val snapshot : unit -> (string * int) list
val reset_all : unit -> unit
