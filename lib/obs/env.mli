(** The [HETSCHED_TRACE] switch.

    Tracing is off by default; {!Span.with_} is then a single flag check
    and no span is ever allocated. The environment variable enables it as
    {!parse} reads it: any value other than the "off" ones enables
    tracing, and one other than ["1"]/["true"]/["yes"]/["on"] also names
    the output file (e.g. [HETSCHED_TRACE=run.json]). *)

(** [parse v] reads a switch variable's value ([None] when unset) as
    [(on, value)]: [""], ["0"], ["false"], ["no"] and ["off"]
    (case-insensitively, around whitespace) are off; ["1"], ["true"],
    ["yes"] and ["on"] are on with no value; anything else is on and is
    itself the value, trimmed. [Check.Env] reads [HETSCHED_VALIDATE]
    through it too. *)
val parse : string option -> bool * string option

(** [true] iff the override is set to [Some true], or no override is set
    and [HETSCHED_TRACE] enables tracing. Read on every span open — the
    environment is parsed once and cached. *)
val trace_enabled : unit -> bool

(** Force tracing on or off regardless of the environment ([None] restores
    environment control). Process-global and read atomically; tests and
    the [--trace] CLI flag use this. *)
val set_trace : bool option -> unit

(** Where {!Trace.finish} writes when no explicit path is given: the
    [HETSCHED_TRACE] value when it names a file, [hetsched_trace.json]
    otherwise. *)
val trace_path : unit -> string
