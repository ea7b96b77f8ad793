let default_path = "hetsched_trace.json"

let override : bool option Atomic.t = Atomic.make None
let set_trace v = Atomic.set override v

(* "", "0", "false", "no", "off" (case-insensitively) disable; "1", "true",
   "yes", "on" enable with no value; anything else enables and is itself
   the value. *)
let parse = function
  | None -> (false, None)
  | Some s -> (
      let trimmed = String.trim s in
      match String.lowercase_ascii trimmed with
      | "" | "0" | "false" | "no" | "off" -> (false, None)
      | "1" | "true" | "yes" | "on" -> (true, None)
      | _ -> (true, Some trimmed))

(* Read once, when the program starts. *)
let on, path = parse (Sys.getenv_opt "HETSCHED_TRACE")

let trace_enabled () =
  match Atomic.get override with Some b -> b | None -> on

let trace_path () = match path with Some p -> p | None -> default_path
