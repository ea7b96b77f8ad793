(** Minimal JSON tree: enough to emit traces and bench rows and to read
    them back ({!Trace}, [bin/bench_gate]), and to parse every wire
    request ([Serve.Jsonl]). Not a general-purpose library — no
    streaming, no number-precision guarantees beyond round-tripping what
    {!to_string} itself emits. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering. Non-finite floats (JSON has none) emit as [null];
    whole floats may emit without a decimal point and therefore re-parse
    as [Int]. *)
val to_string : t -> string

(** Strict parse of a complete document. [Error] carries an offset and a
    reason. One pass over the string: integers of up to 18 digits are read
    in place and strings without escapes are cut with one [String.sub].
    Objects and arrays may nest at most {!max_depth} deep; the first
    container past the bound is an error naming it, so no input can
    exhaust the stack. Never raises. *)
val parse : string -> (t, string) result

(** 512: the deepest nesting {!parse} accepts. A fixed constant, not a
    setting; a test seam for the depth tests and the reference parser. *)
val max_depth : int

(** [member k (Obj fields)] is the first [k] binding; [None] on any other
    constructor. *)
val member : string -> t -> t option

val to_list_opt : t -> t list option
val to_string_opt : t -> string option
val to_int_opt : t -> int option

(** [Int] widens to float. *)
val to_float_opt : t -> float option
