(** The [HETSCHED_TRACE] switch.

    Tracing is off by default; {!Span.with_} is then a single flag check
    and no span is ever allocated. The environment variable enables it:
    [""], ["0"], ["false"], ["no"] and ["off"] (case-insensitively)
    disable, ["1"]/["true"]/["yes"]/["on"] enable with the default output
    path, and any other value enables tracing {e and} names the output
    file (e.g. [HETSCHED_TRACE=run.json]). *)

(** [true] iff the override is set to [Some true], or no override is set
    and [HETSCHED_TRACE] enables tracing. Read on every span open — the
    environment is parsed once and cached. *)
val trace_enabled : unit -> bool

(** Force tracing on or off regardless of the environment ([None] restores
    environment control). Process-global and read atomically; tests and
    the [--trace] CLI flag use this. *)
val set_trace : bool option -> unit

val get_trace : unit -> bool option

(** Where {!Trace.finish} writes when no explicit path is given: the
    [HETSCHED_TRACE] value when it names a file, [hetsched_trace.json]
    otherwise. *)
val trace_path : unit -> string
