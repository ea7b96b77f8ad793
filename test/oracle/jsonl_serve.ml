(* The batch JSONL loop as it was before requests ran through a
   daemon session: read every line to EOF, solve all synthesis jobs in
   capacity-sized waves, then walk the lines in input order and derive
   the admission verdicts against one controller. Kept as the byte
   reference for [Serve.Daemon.serve_channel] and [serve_fd]. The wave
   loop the server used to export is inlined, and the malformed-line
   counter is dropped: it no longer exists. *)

open Serve.Jsonl
module J = Obs.Json

let read_lines input =
  let rec loop line acc =
    match input_line input with
    | s -> loop (line + 1) ((line, s) :: acc)
    | exception End_of_file -> List.rev acc
  in
  loop 1 []

let serve ?lookup ?admission server ~input ~output =
  let lines =
    List.filter (fun (_, s) -> String.trim s <> "") (read_lines input)
  in
  let parsed =
    List.map (fun (line, s) -> (line, line_of_string ?lookup ~line s)) lines
  in
  (* Batch-solve every synthesis job — plain solves and the inner
     requests of admit lines — sharded over the pool; admission state is
     order-dependent, so verdicts are derived afterwards by walking the
     lines in input order against one controller. *)
  let requests =
    List.filter_map
      (function
        | _, Ok (Solve item) -> Some item.request
        | _, Ok (Admit a) -> Some a.periodic.Core.Synthesis.request
        | _ -> None)
      parsed
  in
  let solve_batch reqs =
    let capacity = Serve.Server.queue_capacity server in
    let rec waves acc = function
      | [] -> List.concat (List.rev acc)
      | reqs ->
          let rec fill n = function
            | req :: rest when n < capacity ->
                if not (Serve.Server.try_submit server req) then
                  invalid_arg "Oracle.Jsonl_serve: queue full";
                fill (n + 1) rest
            | rest -> rest
          in
          let rest = fill (Serve.Server.pending server) reqs in
          waves (Serve.Server.drain server :: acc) rest
    in
    waves [] reqs
  in
  let responses = solve_batch requests in
  let adm =
    match admission with Some a -> a | None -> Rt.Admission.create ()
  in
  let emit_line s = output_string output s; output_char output '\n' in
  let rec emit count parsed responses =
    match (parsed, responses) with
    | [], [] -> count
    | (line, Error msg) :: parsed, responses ->
        emit_line (error_to_string ~id:(J.Int line) msg);
        emit (count + 1) parsed responses
    | (_, Ok (Solve item)) :: parsed, resp :: responses ->
        emit_line (response_to_string ~id:item.id resp);
        emit (count + 1) parsed responses
    | (_, Ok (Admit a)) :: parsed, resp :: responses ->
        let verdict =
          match Core.Synthesis.periodic_of_response a.periodic resp with
          | Stdlib.Ok an -> Rt.Admission.try_admit adm ~id:a.task an
          | Stdlib.Error reason -> Rt.Verdict.Rejected reason
        in
        emit_line (verdict_to_string ~id:a.id ~task:a.task verdict);
        emit (count + 1) parsed responses
    | (_, Ok (Release r)) :: parsed, responses ->
        let known = Rt.Admission.release adm ~id:r.task in
        emit_line (released_to_string ~id:r.id ~task:r.task ~known);
        emit (count + 1) parsed responses
    | (_, Ok (Solve _ | Admit _)) :: _, [] | [], _ :: _ ->
        invalid_arg "Oracle.Jsonl_serve.serve: response count mismatch"
  in
  let count = emit 0 parsed responses in
  flush output;
  count
