(** The request session behind every JSONL entry point, and its two
    request loops: a streaming one over a raw fd pair or a Unix-domain socket
    ([hetsched daemon]) and a batch one over channels ([hetsched serve]
    and [hetsched admit]).

    {2 The session}

    A session is one client's request stream. It holds a line counter,
    an {!Rt.Admission} controller and a FIFO of what each non-blank line
    is owed. Feeding a line decodes it ({!Jsonl.line_of_string}) and
    queues its synthesis job (a solve, or the inner request of an admit)
    in that FIFO at once; the FIFO's jobs are the next wave. Draining
    solves the wave over the pool, each job through the {!Cache} in FIFO
    order, then answers every owed line {e in input order}: solved
    responses, admission verdicts, releases, and the busy and error
    lines fed since the last drain. Admits and releases reach the
    controller in line order during the drain, so a verdict never depends on where the waves were cut or on
    which loop fed the line. Blank lines are skipped but still counted,
    so a malformed line's error reply carries its 1-based line number as
    its id.

    {2 Backpressure}

    The wave is the admission window: it holds at most [queue_capacity]
    jobs. When it is full, a solve or admit line is {e shed}, not
    blocked and not dropped: its answer is
    [{"id": ..., "status": "busy"}] and the request is forgotten. The
    client owns the retry. Every line is answered exactly once: a queued
    job with its response or verdict, a shed line with one busy line, a
    malformed line with one error line. A burst of [k] jobs against a
    wave of capacity [c] yields [min k c] solved jobs and
    [max 0 (k - c)] busy lines, and the answers keep the burst's order,
    so clients can pair replies with requests by position.

    {2 Request loops}

    {!serve_fd} feeds lines as they arrive and drains the moment no
    further input is ready, so answers stream back while the client
    keeps the connection open. {!serve_channel} feeds lines to EOF and
    drains whenever the wave fills, so it sheds nothing. Both print the
    same bytes for the same lines when [serve_fd]'s [queue_capacity] is
    at least the input's line count.

    {2 Real-time admission}

    ["cmd": "admit"] / ["cmd": "release"] lines (see {!Jsonl}) go to the
    session's controller. An admit's synthesis job rides the wave with
    the solves around it and shares their cache; its verdict is derived
    from the response during the drain. The controller (and every
    reservation it granted) dies with the session unless the caller
    passed its own to {!serve_channel}.

    {2 Failure isolation}

    Every job is solved under a handler that turns any escaped exception
    into an [Error] response, counted in [serve.failures], so one
    poisoned request never takes down the pool or the rest of its wave.
    Per-request [budget_ms] is enforced inside {!Core.Synthesis.solve},
    so an oversized request times out on its own shard while its
    neighbours complete normally.

    {2 Observability}

    Queued jobs count in [serve.requests] and non-empty waves in
    [serve.drains]; each wave runs in a [serve.drain:N] span. Both loops
    count [serve.daemon.requests] (well-formed lines),
    [serve.daemon.busy] (shed), [serve.daemon.served] (solved
    responses) and [serve.daemon.malformed]; [serve_fd] also counts
    [serve.daemon.connections], [serve.daemon.idle_closed] (sessions
    reaped by the idle timeout) and [serve.daemon.dropped] (sessions
    whose client hung up before reading its responses). Admission
    verdicts count in [serve.rt.admitted] / [serve.rt.rejected] /
    [serve.rt.released], and the [serve.rt.utilization_pct] gauge tracks
    the admitted set's total utilization (percent, last session to move
    wins). Per-request latency, from feed to answer, is recorded in the
    [serve.daemon.latency_ns] {!Obs.Histogram}, so end-of-run summaries
    and traces report p50/p90/p99. *)

type t

(** Jobs per wave used by default: 256. *)
val default_queue_capacity : int

(** [create ?lookup ?capacity ?pool ?cache ?queue_capacity ()].
    [lookup] resolves ["benchmark"] names in request lines; [capacity] is
    the RT platform each session's admission controller starts from
    (default [Rt.Admission.Uniform Rt.Admission.default_uniform_capacity]).
    Waves are solved on [pool] (default [Par.Pool.global ()], read here)
    through [cache] (default a fresh [Cache.create ()], shared by every
    session of [t]); a session queues at most [queue_capacity] jobs per
    wave (default {!default_queue_capacity}). Raises [Invalid_argument]
    when [queue_capacity < 1]. *)
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

(** [serve_fd ?idle_timeout t ~input ~output] — run one session over a
    raw fd pair until [input] reaches EOF and every fed line has been
    answered. [idle_timeout] (seconds, default off; raises
    [Invalid_argument] unless [> 0] and finite) closes a session that
    sends no complete line for that long {e while nothing is owed} — a
    client mid-burst is never reaped, and bytes without a newline do not
    extend the wait — counting it in [serve.daemon.idle_closed]. Returns
    the number of response lines written.

    A client that hangs up early ends only its own session: SIGPIPE is
    ignored process-wide (by this function and {!listen}), and a write
    failing with [EPIPE] or [ECONNRESET] stops the loop, drops the
    session with its unsolved jobs and counts
    [serve.daemon.dropped]. This is the stdio
    streaming mode ([--socket -]) and the per-connection loop of
    {!listen}; tests drive it over pipes. *)
val serve_fd :
  ?idle_timeout:float -> t -> input:Unix.file_descr -> output:Unix.file_descr -> int

(** [serve_channel ?admission t ~input ~output] — run one session over
    every line of [input] to EOF, writing one answer per non-blank line
    to [output] in input order, and return the number written. The wave
    is drained whenever it fills, so no line is shed. [admission] is the
    session's controller (default a fresh one with [t]'s capacity); pass
    one to read the admitted set afterwards. [hetsched serve] and
    [hetsched admit] run on this. *)
val serve_channel :
  ?admission:Rt.Admission.t -> t -> input:in_channel -> output:out_channel -> int

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
