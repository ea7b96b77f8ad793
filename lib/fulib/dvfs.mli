(** Per-FU-type DVFS frequency levels.

    A {!level} scales one FU type's execution time and energy: running a
    type at [freq_pct] percent of nominal frequency multiplies execution
    times by [time_pct]/100 (rounded up, never below 1 step) and energy
    costs by [energy_pct]/100 (rounded to nearest). {!expand} turns a base
    table with K types and per-type level ladders into an expanded table
    whose K' = sum of ladder lengths types are the (type, level) pairs —
    so every existing solver selects frequency levels for free, and the
    cost column becomes a real energy objective.

    Default derivations (when not given explicitly) follow the usual CMOS
    model: time scales as 1/f ([time_pct = ceil (10000 / freq_pct)]) and
    dynamic energy as f^2 ([energy_pct = freq_pct^2 / 100]). *)

type level = private { freq_pct : int; time_pct : int; energy_pct : int }

(** Nominal frequency: the identity level (100/100/100). Expanding with
    ladders of just [nominal] reproduces the base table exactly. Every
    ladder starts at it; a test seam for the tests that build ladders
    level by level. *)
val nominal : level

(** [level freq_pct] derives [time_pct]/[energy_pct] from the frequency
    unless overridden. Raises [Invalid_argument] unless
    [1 <= freq_pct <= 100], [time_pct >= 100] (a slower clock never speeds
    a node up) and [energy_pct >= 0]. *)
val level : ?time_pct:int -> ?energy_pct:int -> int -> level

(** [scale_time l t] = [max 1 (ceil (t * l.time_pct / 100))]. *)
val scale_time : level -> int -> int

(** [scale_energy l c] = [c * l.energy_pct / 100], rounded to nearest. *)
val scale_energy : level -> int -> int

(** [uniform ~levels ~types] gives every one of [types] base types the
    same [levels]-step ladder from 100% down to 50% (e.g. 3 levels =
    100/75/50). [1 <= levels <= 16]. *)
val uniform : levels:int -> types:int -> level array array

(** [of_freqs per_type] builds one descending ladder per base type from
    per-type frequency percents (e.g. [[[100; 75; 50]]]). Raises
    [Invalid_argument] when a list is empty or does not start at 100
    (level 0 must be nominal, so a leveled table can only get cheaper,
    never faster). *)
val of_freqs : int list list -> level array array

(** How an expanded table's types map back to the base table: expanded
    type [e] is base type [base.(e)] run at [levels.(base.(e)).(level.(e))].
    [first.(b)] is the first expanded index of base type [b] (so its
    siblings are [first.(b) .. first.(b+1) - 1]). *)
type mapping = {
  base : int array;
  level : int array;
  first : int array;
  levels : level array array;
}

val num_expanded : mapping -> int
val num_base : mapping -> int

(** All expanded types sharing [e]'s base type, ascending (includes [e]). *)
val siblings : mapping -> int -> int list

(** [expand table ~levels] builds the expanded table: base type [b]'s
    ladder [levels.(b)] contributes one expanded type per level, named
    ["P1@75"]-style, times/costs scaled per {!scale_time}/{!scale_energy},
    and [b]'s memory capacity copied to each sibling (each (type, level)
    pair models the same physical FU, just clocked lower). Raises
    [Invalid_argument] unless [levels] has one non-empty ladder per base
    type, and when a scaled time passes {!Table.max_cell}. *)
val expand : Table.t -> levels:level array array -> Table.t * mapping
