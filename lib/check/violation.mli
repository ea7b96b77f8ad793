(** Structured violations and checker reports.

    Every checker in this library returns a {!report} — the list of
    invariant violations it found plus how many independent facts it
    verified — rather than a bare boolean, so a failed validation names the
    node, the invariant and the numbers involved. *)

type t = {
  code : string;
      (** stable machine-readable id, e.g. ["path-over-deadline"] *)
  node : int option;  (** primary node involved, when there is one *)
  detail : string;  (** human-readable description with the numbers *)
}

type report = {
  checker : string;  (** e.g. ["Check.Assignment"] *)
  violations : t list;  (** in discovery order; empty = clean *)
  checked : int;  (** number of independent facts verified *)
}

(** {2 Queries}

    {!raise_if_failed} and the [Failed] printer read reports through
    {!ok} and {!summary}. {!has_code} and {!merge} are test seams: the
    tests and the cyclic oracle read and combine reports through them. *)

val ok : report -> bool

(** [has_code r code] — some violation in [r] carries [code]. *)
val has_code : report -> string -> bool

(** One-line rendering: ["Check.X: ok (n facts)"] or the first few
    violations with their codes. *)
val summary : report -> string

(** [merge ~checker reports] concatenates violations and sums the fact
    counts. *)
val merge : checker:string -> report list -> report

exception Failed of report
(** Raised by {!raise_if_failed}; registered with a printer that shows
    {!summary}. *)

val raise_if_failed : report -> unit

(** {2 Report builders (for checker implementations)} *)

type builder

val builder : unit -> builder

(** Count one verified fact. *)
val fact : builder -> unit

(** Record a violation (also counts as a fact). *)
val add : builder -> ?node:int -> string -> ('a, unit, string, unit) format4 -> 'a

val report : builder -> checker:string -> report
