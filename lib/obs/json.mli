(** Minimal JSON: a tree to emit traces and bench rows and to read them
    back ({!Trace}, [bin/bench_gate]), and a cursor over the same lexer
    for [Serve.Jsonl]'s one-pass request decoder. Not a general-purpose
    library — no number-precision guarantees beyond round-tripping what
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

(** {2 The cursor}

    The readers {!parse} is made of, for a decoder that walks a document
    in one pass and keeps only what it needs ([Serve.Jsonl]'s request
    decoder). Walking a document with them accepts exactly the bytes
    {!parse} accepts, and a syntax error raises {!Parse_error} carrying
    {!parse}'s own [Error] text: the same offset, reason and
    {!max_depth} bound, whichever values the walker reads and whichever
    it skips. A walker must read every value it does not {!skip}, and end
    with {!finish}.

    Each reader is a call into this module, which the build does not
    inline across modules, so the list and object readers ({!ints},
    {!string_fields}) read a whole row or node in one call. *)

(** Raised by every reader on a syntax error; the text is what {!parse}
    returns in [Error]. *)
exception Parse_error of string

(** The input, the read position and the open-container count. *)
type cursor

val cursor : string -> cursor

(** Skips whitespace and returns the first byte of the next value, which
    stays unread. Dispatch on it: ['{'] to {!open_object}, ['\['] to
    {!open_array}, ['"'] to {!string}, ['-'] or a digit to {!number};
    anything else to {!skip}. *)
val next_value : cursor -> char

(** On the ['{'] or ['\['] {!next_value} returned: enters the container,
    counting its depth. [false] when it is empty (it is then read whole);
    [true] when a member follows. *)
val open_object : cursor -> bool

val open_array : cursor -> bool

(** After a member: [true] on a comma (another member follows), [false]
    on the closing bracket, which leaves the container. *)
val next_field : cursor -> bool

val next_item : cursor -> bool

(** [key c words] reads an object key and its colon, and returns the
    key's index in [words], or [-1]. A key without escapes is matched in
    place, allocating nothing. *)
val key : cursor -> string array -> int

(** On the ['"'] {!next_value} returned: the string, unescaped. *)
val string : cursor -> string

(** On the ['-'] or digit {!next_value} returned: the number as {!parse}
    gives it, [Int] or [Float]. *)
val number : cursor -> t

(** A growable int array, owned by the walker: [data.(0 .. size - 1)]
    are the ints pushed. *)
type ints = { mutable data : int array; mutable size : int }

(** Appends, doubling [data] when it is full. *)
val push : ints -> int -> unit

type int_list = All_ints | Not_all_ints | Not_a_list

(** [ints c b] reads the next value. On an array it pushes every item
    {!parse} would give as [Int] onto [b], checks and skips every other
    item, and returns [All_ints] or [Not_all_ints]; any other value is
    skipped and [Not_a_list] returned, nothing pushed. *)
val ints : cursor -> ints -> int_list

(** [string_fields c words out] reads the next value. On an object, the
    value of the first occurrence of key [words.(k)] is stored in
    [out.(k)] when it is a string; the result has bit [k] set for each
    key so stored. Later duplicates and other keys are checked and
    skipped. Any other value is skipped and [-1] returned. At most 62
    words. *)
val string_fields : cursor -> string array -> string array -> int

(** Reads the next value and checks it, building nothing. *)
val skip : cursor -> unit

(** Checks that nothing but whitespace follows the value read. *)
val finish : cursor -> unit

(** [member k (Obj fields)] is the first [k] binding; [None] on any other
    constructor. *)
val member : string -> t -> t option

val to_list_opt : t -> t list option
val to_string_opt : t -> string option
val to_int_opt : t -> int option

(** [Int] widens to float. *)
val to_float_opt : t -> float option
