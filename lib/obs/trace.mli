(** Trace assembly: the completed span roots plus a snapshot of every
    counter, gauge and histogram, as one JSON document

    {v
    { "counters":   {name: int, ...},
      "gauges":     {name: int, ...},
      "histograms": {name: {count, mean_ns, p50_ns, p90_ns, p99_ns}, ...},
      "spans":      [{"domain": d, "span": {name, start_ns, dur_ns, children}}, ...] }
    v} *)

(** The document {!finish} writes. A test seam: the tests read it without
    a file. *)
val snapshot : unit -> Json.t

(** When tracing is enabled, write the snapshot to [path] (default:
    {!Env.trace_path}) and return where it went; [None] (and no write)
    when tracing is off. CLI entry points call this once on the way out. *)
val finish : ?path:string -> unit -> string option
