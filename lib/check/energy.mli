(** Independent re-derivation of the DVFS energy accounting.

    Given the base (single-level) table, the {!Fulib.Dvfs.mapping}, the
    expanded table a leveled result refers to, and the energy the
    synthesis reported, this oracle re-proves from primitives that

    - the expanded table really is the base table pushed through each
      level's scaling laws (every cell re-derived via
      {!Fulib.Dvfs.scale_time}/{!Fulib.Dvfs.scale_energy}) —
      ["level-table-mismatch"], ["levels-shape"];
    - every assignment entry names a valid expanded (type, level) pair —
      ["level-out-of-range"];
    - the reported energy equals the sum of assigned expanded costs —
      ["energy-mismatch"].

    A silently swapped frequency level (the test oracles'
    [Mutate.swap_level]) changes the true energy but not the reported one,
    so it is caught as ["energy-mismatch"]. *)

val check :
  base:Fulib.Table.t ->
  mapping:Fulib.Dvfs.mapping ->
  Fulib.Table.t ->
  Assign.Assignment.t ->
  expect_energy:int ->
  Violation.report
