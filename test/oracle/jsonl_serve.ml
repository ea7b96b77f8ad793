(* The batch JSONL loop as it was before requests ran through a
   daemon session: read every line to EOF, solve every synthesis job,
   then walk the lines in input order and derive the admission verdicts
   against one controller. Kept as the byte reference for
   [Serve.Daemon.serve_channel] and [serve_fd]. Each job is solved with
   plain [Core.Synthesis.solve], with no pool, wave or cache, so the
   reference shares none of that code with the loops it checks, and a
   cache hit in a loop must give a fresh solve's bytes. *)

open Serve.Jsonl
module J = Obs.Json

let read_lines input =
  let rec loop line acc =
    match input_line input with
    | s -> loop (line + 1) ((line, s) :: acc)
    | exception End_of_file -> List.rev acc
  in
  loop 1 []

let serve ?lookup ?admission () ~input ~output =
  let lines =
    List.filter (fun (_, s) -> String.trim s <> "") (read_lines input)
  in
  let parsed =
    List.map (fun (line, s) -> (line, line_of_string ?lookup ~line s)) lines
  in
  (* Solve every synthesis job — plain solves and the inner requests of
     admit lines — first; admission state is order-dependent, so
     verdicts are derived afterwards by walking the lines in input order
     against one controller. *)
  let responses =
    List.filter_map
      (function
        | _, Ok (Solve item) -> Some (Core.Synthesis.solve item.request)
        | _, Ok (Admit a) ->
            Some (Core.Synthesis.solve a.periodic.Core.Synthesis.request)
        | _ -> None)
      parsed
  in
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
