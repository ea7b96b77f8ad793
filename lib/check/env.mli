(** The [HETSCHED_VALIDATE] switch.

    When enabled, [Core.Synthesis.solve] and [Core.Experiments.run_benchmark]
    audit every solver output with the checkers of this library and raise
    {!Violation.Failed} on the first corrupt result. Off by default so
    benchmarks measure the solvers, not the oracle; CI runs the whole suite
    with it on. *)

(** [enabled ()] — [true] iff the override is set to [Some true], or no
    override is set and [HETSCHED_VALIDATE] is on as {!Obs.Env.parse}
    reads it: anything other than (case-insensitively) [""], ["0"],
    ["false"], ["no"] or ["off"]. The variable is read once, when the
    program starts. [?getenv] is a test seam: it reads the variable
    through the given lookup instead, on every call. *)
val enabled : ?getenv:(string -> string option) -> unit -> bool

(** Force validation on or off regardless of the environment ([None]
    restores environment control). Tests use this; it is process-global and
    read atomically, so it is safe to set before fanning work out over
    domains. *)
val set_override : bool option -> unit
