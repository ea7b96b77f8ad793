(** Random periodic task sets for admission-control tests and benches.

    Each task is an independent random DFG with an op-aware random
    time/cost table, a release period and a deadline. Periods are
    {e harmonic} — the smallest power of two at or above the task's
    critical path, times a random power-of-two multiplier — so the
    hyperperiod of any generated set stays within a small multiple of
    the largest period and simulation-based certificates stay cheap. *)

type spec = {
  name : string;  (** ["t0"], ["t1"], ... — admission-controller keys *)
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  period : int;
  deadline : int;
}

(** [random rng ~tasks] — a mixed feasible-leaning set: periods 1-8x the
    power-of-two ceiling of the all-fastest critical path, deadlines
    uniform from that critical path to the period (constrained), except
    roughly one task in eight gets [deadline = 2 * period] to exercise the
    pipelined-heavy path. Node counts uniform in [min_nodes .. max_nodes]
    (defaults [6 .. 14]); [library] defaults to [Fulib.Library.standard3]. *)
val random :
  ?min_nodes:int ->
  ?max_nodes:int ->
  ?library:Fulib.Library.t ->
  Prng.t ->
  tasks:int ->
  spec list
