(** Graph transposition. *)

(** [transpose g] reverses every edge (delays preserved). Node ids, names and
    operations are unchanged. Critical-path sums are invariant under
    transposition, which is why assignment may run on either orientation. *)
val transpose : Dfg.Graph.t -> Dfg.Graph.t
