(* [holds reason] re-checks the inequality a rejection's witness claims —
   [true] for every reason the admission analysis constructs. Structural
   reasons without numbers ([Infeasible_deadline], [Synthesis_error],
   [Width_mismatch], [Duplicate_id]) hold vacuously. The witness is the
   inequality itself; re-checking it is arithmetic on the carried numbers,
   independent of the analysis that produced it. *)
let holds : Rt.Verdict.reason -> bool = function
  | Infeasible_deadline | Synthesis_error _ -> true
  | Period_overrun { min_period; period } -> min_period > period
  | Width_mismatch { expected; got } -> expected <> got
  | Duplicate_id _ -> true
  | Insufficient_capacity { need; have; _ } -> need > have
  | Utilization_overrun { utilization; bound } -> utilization > bound
  | Response_overrun { response; deadline; _ } -> response > deadline
