(** The request session behind every JSONL entry point and its one
    request loop, {!serve}: [hetsched serve] and [hetsched admit] run it
    over their input file, and [hetsched daemon] over stdio or each
    connection of a Unix-domain socket ({!serve_fd}, {!listen}).

    {2 The session}

    A session is one client's request stream. It holds a line counter,
    an {!Rt.Admission} controller and a FIFO of what each non-blank line
    is owed. Feeding a line decodes it ({!Jsonl.line_of_string}) and
    queues its answer in that FIFO at once: a synthesis job (a solve, or
    the inner request of an admit), a release, or an error line. The
    FIFO's jobs are the next wave. Draining keys every job
    ({!Cache.key}) in FIFO order, so each distinct request of the wave
    is probed in the {!Cache} and solved at most once; a later job with
    the same key takes the first one's answer and counts a cache hit.
    The misses are solved over the pool. Then the drain answers every
    owed line {e in input order}: solved responses, admission verdicts,
    releases and error lines. A hit is answered with the stored wire
    body behind the line's id ({!Jsonl.splice}); a request solved in
    this wave is serialized by its first answer, and that body is what
    the cache stores once the wave's answers are written. Admits and releases reach the
    controller in line order during the drain, so a verdict never
    depends on where the waves were cut. Blank lines are skipped but
    still counted, so a malformed line's error reply carries its
    1-based line number as its id.

    {2 The request loop}

    {!serve} feeds lines as they arrive and drains the wave in three
    cases: no further input is ready, the input is at EOF, or the
    session owes [queue_capacity] answers (jobs, errors and releases
    alike). So the FIFO never holds more than [queue_capacity] entries,
    answers stream back while the client keeps its connection open, and
    every non-blank line gets exactly one answer: a job its response or
    verdict, a release its released or error line, a malformed line its
    error line. Nothing is shed: a full wave is drained, not refused.
    Over the same lines, every cut of the waves prints the same bytes.

    A drain writes its answers before the loop reads on, so a client
    must read answers while it writes: once [queue_capacity] answers are
    owed, or whenever its input pauses, the session writes them, and
    once the output's buffer is full it waits until the client reads. [hetsched client] ({!call}) reads on one
    domain and writes on another.

    {2 Real-time admission}

    ["cmd": "admit"] / ["cmd": "release"] lines (see {!Jsonl}) go to the
    session's controller. An admit's synthesis job rides the wave with
    the solves around it and shares their cache; its verdict is derived
    from the response record during the drain. An entry stored for a
    solve line holds only bytes, so an admit that finds one solves once
    and attaches the record to it. The controller (and every
    reservation it granted) dies with the session unless the caller
    passed its own to {!serve}.

    {2 Failure isolation}

    Every job is solved under a handler that turns any escaped exception
    into an [Error] response, counted in [serve.failures], so one
    poisoned request never takes down the pool or the rest of its wave.
    A request that cannot be encoded is solved alone and never cached.
    Per-request [budget_ms] is enforced inside {!Core.Synthesis.solve},
    so an oversized request times out on its own shard while its
    neighbours complete normally.

    {2 Observability}

    Queued jobs count in [serve.requests] and waves that hold a job in
    [serve.drains], so their ratio is the mean wave size; each such wave
    runs in a [serve.drain] span, whose name is a constant. The
    loop counts [serve.daemon.requests] (well-formed lines),
    [serve.daemon.served] (solved responses),
    [serve.daemon.malformed], [serve.daemon.idle_closed] (sessions
    reaped by the idle timeout) and [serve.daemon.dropped] (sessions
    whose client hung up before reading its responses); {!serve_fd}
    also counts [serve.daemon.connections]. Admission verdicts count in
    [serve.rt.admitted] / [serve.rt.rejected] / [serve.rt.released], and
    the [serve.rt.utilization_pct] gauge tracks the admitted set's total
    utilization (percent, last session to move wins). Per-request
    latency, from feed to answer, is recorded in the
    [serve.daemon.latency_ns] {!Obs.Histogram}, so end-of-run summaries
    and traces report p50/p90/p99. *)

type t

(** Answers a wave may owe by default: 256. *)
val default_queue_capacity : int

(** [create ?lookup ?capacity ?pool ?cache ?queue_capacity ()].
    [lookup] resolves ["benchmark"] names in request lines; [capacity] is
    the RT platform each session's admission controller starts from
    (default [Rt.Admission.Uniform Rt.Admission.default_uniform_capacity]).
    Waves are solved on [pool] (default [Par.Pool.global ()], read here)
    through [cache] (default a fresh [Cache.create ()], shared by every
    session of [t]); a session drains its wave once it owes
    [queue_capacity] answers (default {!default_queue_capacity}). Raises
    [Invalid_argument] when [queue_capacity < 1]. *)
val create :
  ?lookup:Jsonl.lookup ->
  ?capacity:Rt.Admission.spec ->
  ?pool:Par.Pool.t ->
  ?cache:Cache.t ->
  ?queue_capacity:int ->
  unit ->
  t

(** The process-global [serve.daemon.latency_ns] histogram. *)
val latency_histogram : unit -> Obs.Histogram.t

(** [serve ?admission ?idle_timeout t ~input ~emit] — run one session
    over the raw fd [input] until it reaches EOF and every fed line has
    been answered, passing each answer line, without its newline, to
    [emit] in input order. Returns the number of answers emitted.
    [admission] is the session's controller (default a fresh one with
    [t]'s capacity); pass one to read the admitted set afterwards.
    [idle_timeout] (seconds, default off; raises [Invalid_argument]
    unless [> 0] and finite) closes a session that sends no complete
    line for that long {e while nothing is owed} — a client mid-burst is
    never reaped, and bytes without a newline do not extend the wait —
    counting it in [serve.daemon.idle_closed]. [hetsched serve] and
    [hetsched admit] run on this, with [input] their input file and
    [emit] a write to a buffered channel. *)
val serve :
  ?admission:Rt.Admission.t ->
  ?idle_timeout:float ->
  t ->
  input:Unix.file_descr ->
  emit:(string -> unit) ->
  int

(** [serve_fd ?idle_timeout t ~input ~output] — {!serve} with every
    answer line written to the raw fd [output] by one [write] of its
    own, counting [serve.daemon.connections]. This is the stdio mode
    ([--socket -]) and the per-connection loop of {!listen}; tests drive
    it over pipes.

    A client that hangs up early ends only its own session: SIGPIPE is
    ignored process-wide (by this function and {!listen}), and a write
    failing with [EPIPE] or [ECONNRESET] stops the loop, drops the
    session with its unsolved jobs and counts [serve.daemon.dropped]. *)
val serve_fd :
  ?idle_timeout:float -> t -> input:Unix.file_descr -> output:Unix.file_descr -> int

(** [listen ?connections ?idle_timeout t ~path ()] — bind a Unix-domain
    socket at [path] (unlinking any stale one), accept connections one
    at a time and run {!serve_fd} on each. Stops after [connections]
    connections when given (raises [Invalid_argument] if [< 1]),
    otherwise accepts forever. [idle_timeout] guards each connection —
    with serialized accepts, one silent client would otherwise starve
    the backlog forever. The socket file is removed on exit. Returns the
    total number of response lines written. *)
val listen :
  ?connections:int -> ?idle_timeout:float -> t -> path:string -> unit -> int

(** [call ~path ~input ~output] — client pump: connect to the daemon at
    [path], stream every line of [input] to it while concurrently copying
    response lines to [output] (a second domain feeds the socket so the
    pump cannot deadlock on a full kernel buffer), then half-close and
    read to EOF. Returns the number of response lines received. *)
val call : path:string -> input:in_channel -> output:out_channel -> int
