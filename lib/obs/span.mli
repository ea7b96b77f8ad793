(** Nestable timed spans with a domain-safe in-memory sink.

    [with_ name f] times [f] when tracing is enabled ({!Env.trace_enabled})
    and records the span under the currently open span of the calling
    domain; a span with no open parent becomes a {e root} in the global
    sink, tagged with its domain id — so spans from pool tasks appear as
    per-domain root trees rather than being misattached across domains.

    When tracing is disabled the call is one flag check plus the closure
    call: nothing is allocated and the sink stays empty (the overhead
    contract the [obs] bench group pins). Exceptions propagate unchanged;
    the span is still closed and recorded. *)

type t = {
  name : string;
  start_ns : float;  (** wall clock, ns since the epoch *)
  dur_ns : float;
  children : t list;  (** in open order *)
}

val with_ : string -> (unit -> 'a) -> 'a

(** Completed root spans as [(domain id, span)], oldest first. *)
val roots : unit -> (int * t) list

(** Drop all recorded roots (open frames are unaffected). *)
val clear : unit -> unit
