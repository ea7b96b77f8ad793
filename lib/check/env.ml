let override : bool option Atomic.t = Atomic.make None
let set_override v = Atomic.set override v

let read getenv = fst (Obs.Env.parse (getenv "HETSCHED_VALIDATE"))

(* Read once, when the program starts. *)
let from_env = read Sys.getenv_opt

let enabled ?getenv () =
  match (Atomic.get override, getenv) with
  | Some forced, _ -> forced
  | None, None -> from_env
  | None, Some getenv -> read getenv
