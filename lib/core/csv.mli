(** CSV export of experiment results (RFC-4180-style quoting). *)

(** [render ~header rows] — fields containing commas, quotes, LF or CR are
    quoted, quotes doubled; field content (including CR/LF and
    leading/trailing spaces) is otherwise preserved byte-for-byte, so a
    quote-aware parser round-trips every field exactly. Rows may be
    ragged. Records are separated by a single ["\n"] (LF, {e not} CRLF —
    the Unix convention, accepted by RFC-4180 consumers) and the output
    ends with a trailing newline. *)
val render : header:string list -> string list list -> string

(** The whole of Table 1 or 2 as one CSV: one row per (benchmark, deadline,
    algorithm) with the cost, % reduction vs greedy, and the row's
    configuration. *)
val of_reports : Experiments.benchmark_report list -> string

(** A frontier as CSV. *)
val of_frontier : Frontier.point list -> string
