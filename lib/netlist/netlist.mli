(** Text serialisation of DFGs and their time/cost tables.

    A line-oriented format so benchmark netlists can live in files:

    {v
# comment, blank lines ignored
fu-types P1 P2 P3
node a mul 2/10 4/6 6/2
node b add 1/6 2/3 4/1
edge a b
edge b a delay 2
    v}

    [fu-types] is optional; when present every [node] line must carry one
    [time/cost] pair per type, and parsing returns the table. Without it,
    [node] lines are just [node <name> <op>] and the table is [None].
    Node names must be unique and whitespace-free; edges refer to earlier
    or later nodes by name. *)

(** [to_string ?table g] renders [g] (and its table, if given — the table's
    node indexing must match [g]). *)
val to_string : ?table:Fulib.Table.t -> Dfg.Graph.t -> string

exception Parse_error of int * string
(** [(line number, message)] *)

(** [of_string s] parses; raises {!Parse_error} on malformed input
    (unknown directive, duplicate or undefined node names, wrong number of
    table entries, malformed pairs, invalid graph structure). {!load}
    parses the file's text with it; a test seam for the parser and fuzz
    tests, which feed it text directly. *)
val of_string : string -> Dfg.Graph.t * Fulib.Table.t option

(** Convenience file wrappers. *)
val save : path:string -> ?table:Fulib.Table.t -> Dfg.Graph.t -> unit

val load : path:string -> Dfg.Graph.t * Fulib.Table.t option
