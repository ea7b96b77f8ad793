type t = {
  name : string;
  start_ns : float;
  dur_ns : float;
  children : t list;
}

(* An open frame. Children complete before their parent, so a frame only
   ever accumulates already-finished spans. *)
type frame = { fname : string; fstart : float; mutable kids_rev : t list }

(* Per-domain stack of open frames: spans nest within one domain; a pool
   task's spans become their own roots tagged with the worker's domain id. *)
let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let sink_m = Mutex.create ()
let sink : (int * t) list ref = ref [] (* newest first *)

let now_ns () = Unix.gettimeofday () *. 1e9
let record_root span =
  let d = (Domain.self () :> int) in
  Mutex.lock sink_m;
  sink := (d, span) :: !sink;
  Mutex.unlock sink_m

let close frame stack =
  match !stack with
  | top :: rest when top == frame ->
      stack := rest;
      let span =
        {
          name = frame.fname;
          start_ns = frame.fstart;
          dur_ns = now_ns () -. frame.fstart;
          children = List.rev frame.kids_rev;
        }
      in
      (match rest with
      | parent :: _ -> parent.kids_rev <- span :: parent.kids_rev
      | [] -> record_root span)
  | _ ->
      (* Defensive: the stack was cleared or re-entered out of order
         (e.g. tracing toggled mid-span). Drop up to and including our
         frame rather than corrupting the nesting. *)
      let rec pop = function
        | [] -> []
        | top :: rest when top == frame -> rest
        | _ :: rest -> pop rest
      in
      stack := pop !stack

let with_ name f =
  if not (Env.trace_enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let frame = { fname = name; fstart = now_ns (); kids_rev = [] } in
    stack := frame :: !stack;
    match f () with
    | v ->
        close frame stack;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close frame stack;
        Printexc.raise_with_backtrace e bt
  end

let roots () =
  Mutex.lock sink_m;
  let r = List.rev !sink in
  Mutex.unlock sink_m;
  r

let clear () =
  Mutex.lock sink_m;
  sink := [];
  Mutex.unlock sink_m
