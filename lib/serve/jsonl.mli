(** JSONL wire format for the synthesis service: one request per input
    line, one response per output line, same order. Every non-blank line
    is answered exactly once, with a response, a verdict, a release or an
    error line; no status refuses a line for load. This module decodes
    lines and renders answers; {!Daemon} runs the request session.

    {2 Request line}

    {[
      {"id": "fir-1", "benchmark": "fir16", "seed": 7,
       "deadline_factor": 1.2, "algorithm": "repeat",
       "scheduler": "list", "validate": true, "budget_ms": 500}
    ]}

    Fields:
    - [id] (string or int, optional) — echoed in the response; defaults to
      the 1-based line number.
    - instance — either [benchmark] (+ optional [seed], default 42),
      resolved through the caller-supplied [lookup]; or an inline [graph]
      ([{"nodes": [{"name": "a", "op": "mul"}, ...],
      "edges": [[src, dst, delay], ...]}]) with a [table]
      ([{"types": ["P1", ...], "time": [[...], ...], "cost": [[...], ...]}],
      node-major, one row per graph node). Times are ints in
      [1 .. 2^32] and costs ints in [0 .. 2^32]
      ({!Fulib.Table.max_cell}); any other cell is a per-line
      ["table: Table.make: ..."] error, so no sum of cells can wrap. A
      DVFS [levels] ladder that slows a time past the bound answers a
      ["levels: Table.make: ..."] error.
    - deadline — [deadline] (absolute control steps) or [deadline_factor]
      (multiplied by the instance's minimum feasible deadline, rounded
      down, at least the minimum).
    - [algorithm] (optional, default ["repeat"]) — any
      {!Assign.Solve.of_name_result} spelling; [scheduler] (["list"] or
      ["force"], default ["list"]); [validate] / [rtl] (bools, default
      false); [budget_ms] (optional). Other fields are ignored.

    {2 Response line}

    {[
      {"id": "fir-1", "status": "ok", "cost": 123, "makespan": 40,
       "config": [2, 1, 1], "lower_bound": [1, 1, 1],
       "stats": {"nodes": 31, ...}, "violations": []}
    ]}

    [status] is ["ok"], ["infeasible"], ["infeasible_memory"],
    ["timeout"] or ["error"] (then an ["error"] field carries the
    message). Result fields are present only when there is a result.

    With ["rtl": true], a result additionally carries an ["rtl"] object:
    MD5 content digests of the structural module and its testbench (the
    artifacts themselves come from [hetsched rtl], not the wire; the
    digests are the ones {!Core.Synthesis.solve} stored in the response's
    {!Rtl.Backend.summary}, so rendering hashes nothing), the
    lowered ["period"], interconnect stats ([fu_instances], [registers],
    [mux_count], [mux_inputs], [wires]) and an ["unsupported"] list whose
    entries mirror violation objects ([{code, node, detail}] with code
    ["unsupported-op"]). The knob is part of the request's encoding, the
    cache key, so lowered and plain responses never share an entry.

    {2 Admission lines}

    A line with ["cmd": "admit"] is a solve line plus a ["period"] (int,
    control steps) and an optional ["task"] (string key for the admission
    controller; defaults to the line's [id]). The response line's status
    is ["admitted"] — with ["heavy"], ["config"], ["response_time"] and
    ["utilization"] — or ["rejected"] with a stable ["reason"] code, a
    human ["detail"] and a ["witness"] object carrying exactly the
    numbers of the inequality the rejection claims. ["cmd": "release"]
    with a ["task"] frees an admitted task (status ["released"], or an
    ["error"] line for an unknown task). ["deadline"], ["deadline_factor"]
    and ["period"] are validated before dispatch: a non-integer or
    non-positive value is a per-line error naming the field. *)

(** Resolves a [benchmark] name to an instance. *)
type lookup = string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option

(** A parsed request plus the identity echoed into its response line. *)
type item = { id : Obs.Json.t; request : Core.Synthesis.request }

(** One wire line: a plain solve, a periodic admission request, or a
    release of an admitted task. *)
type line =
  | Solve of item
  | Admit of {
      id : Obs.Json.t;
      task : string;  (** admission-controller key *)
      periodic : Core.Synthesis.periodic;
    }
  | Release of { id : Obs.Json.t; task : string }

(** Dispatch on the line's ["cmd"] field (default ["solve"]). *)
val line_of_json :
  ?lookup:lookup -> line:int -> Obs.Json.t -> (line, string) result

(** [line_of_string ?lookup ~line s] — decode one raw wire line. [line]
    is the 1-based line number used as the default [id]. [Error]
    describes the field at fault, or the malformed JSON. *)
val line_of_string :
  ?lookup:lookup -> line:int -> string -> (line, string) result

(** The response line after its [{"id":<id>,] prefix: every other field,
    then the closing brace. The one place a response is rendered; the
    result cache stores this text. *)
val response_body : Core.Synthesis.response -> string

(** [splice ~id body] — the whole line: [{"id":], [id] rendered as JSON,
    [","], then [body]. A cache hit answers with it, so it copies bytes
    and renders nothing but the id. *)
val splice : id:Obs.Json.t -> string -> string

(** The compact one-line response for a solve line:
    [splice ~id (response_body resp)]. *)
val response_to_string : id:Obs.Json.t -> Core.Synthesis.response -> string

(** The error line emitted in place of a response when a request line
    cannot be parsed: [{"id": ..., "status": "error", "error": msg}]. *)
val error_to_string : id:Obs.Json.t -> string -> string

(** The ["admitted"] / ["rejected"] response line for an admit request;
    rejections carry the machine-checkable ["witness"] object. *)
val verdict_to_string : id:Obs.Json.t -> task:string -> Rt.Verdict.t -> string

(** The ["released"] response line; with [known:false], the ["error"]
    line naming the unknown task instead. *)
val released_to_string : id:Obs.Json.t -> task:string -> known:bool -> string
