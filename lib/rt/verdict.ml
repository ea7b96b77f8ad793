type reservation = {
  heavy : bool;
  config : Sched.Config.t;
  response_time : int;
  utilization : float;
}

type reason =
  | Infeasible_deadline
  | Synthesis_error of string
  | Period_overrun of { min_period : int; period : int }
  | Width_mismatch of { expected : int; got : int }
  | Duplicate_id of string
  | Insufficient_capacity of { ftype : int; need : int; have : int }
  | Utilization_overrun of { utilization : float; bound : float }
  | Response_overrun of { id : string; response : int; deadline : int }

type t = Admitted of reservation | Rejected of reason

let reason_code = function
  | Infeasible_deadline -> "infeasible_deadline"
  | Synthesis_error _ -> "synthesis_error"
  | Period_overrun _ -> "period_overrun"
  | Width_mismatch _ -> "width_mismatch"
  | Duplicate_id _ -> "duplicate_id"
  | Insufficient_capacity _ -> "insufficient_capacity"
  | Utilization_overrun _ -> "utilization_overrun"
  | Response_overrun _ -> "response_overrun"

let reason_detail = function
  | Infeasible_deadline -> "no schedule of the task's DFG meets its deadline"
  | Synthesis_error msg -> Printf.sprintf "per-task synthesis failed: %s" msg
  | Period_overrun { min_period; period } ->
      Printf.sprintf "smallest legal period %d exceeds task period %d"
        min_period period
  | Width_mismatch { expected; got } ->
      Printf.sprintf "task has %d FU types, platform has %d" got expected
  | Duplicate_id id -> Printf.sprintf "task %S is already admitted" id
  | Insufficient_capacity { ftype; need; have } ->
      Printf.sprintf "FU type %d needs %d instance(s), only %d remain" ftype
        need have
  | Utilization_overrun { utilization; bound } ->
      Printf.sprintf "light utilization %.3f exceeds the shared-pool bound %.3f"
        utilization bound
  | Response_overrun { id; response; deadline } ->
      Printf.sprintf "task %S response time %d exceeds its deadline %d" id
        response deadline
