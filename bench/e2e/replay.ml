(* The traced, in-process side of the benchmark: reference responses for
   the correctness check, and a replay of the daemon's per-request path
   (parse, decode, preheat, digest, probe, solve, store, serialize)
   through the public function of each layer. Only reference solves are
   also split into phases, so the replay does what the daemon does. *)

let decode tr line =
  match Trace.time tr "json.parse" (fun () -> Obs.Json.parse line) with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok json -> (
      let lookup name ~seed =
        Trace.time tr "workloads.lookup" (fun () -> Gen.lookup name ~seed)
      in
      match
        Trace.time tr "jsonl.decode" (fun () ->
            Serve.Jsonl.line_of_json ~lookup ~line:1 json)
      with
      | Ok (Serve.Jsonl.Solve item) -> Ok item.Serve.Jsonl.request
      | Ok _ -> Error "not a solve line"
      | Error msg -> Error msg)

(* What the daemon does before fanning a wave out to its pool. *)
let preheat tr (req : Core.Synthesis.request) =
  Trace.time tr "dfg.preheat" (fun () ->
      Dfg.Graph.preheat req.graph;
      Fulib.Table.preheat req.table)

(* Core.Synthesis.solve's pipeline for list-scheduled requests, one timed
   public call per phase, so the phases can be summed against the timed
   whole. *)
let solve_layers tr (req : Core.Synthesis.request) =
  let g = req.graph and deadline = req.deadline in
  let table, mapping =
    match req.levels with
    | None -> (req.table, None)
    | Some levels ->
        let t, m =
          Trace.time tr "dvfs.expand" (fun () ->
              Fulib.Dvfs.expand req.table ~levels)
        in
        (t, Some m)
  in
  match
    Trace.time tr "assign" (fun () ->
        Assign.Solve.run req.algorithm g table ~deadline)
  with
  | Assign.Solve.Infeasible | Assign.Solve.Infeasible_memory -> ()
  | Assign.Solve.Feasible a -> (
      match
        Trace.time tr "sched.frames" (fun () ->
            Sched.Asap_alap.frames g table a ~deadline)
      with
      | None -> ()
      | Some frames -> (
          match
            Trace.time tr "sched.schedule" (fun () ->
                Sched.Min_resource.run ~frames g table a ~deadline)
          with
          | None -> ()
          | Some { Sched.Min_resource.schedule; config; _ } ->
              let schedule =
                match mapping with
                | Some mapping
                  when not (Assign.Assignment.mem_constrained g table) ->
                    (Trace.time tr "sched.reclaim" (fun () ->
                         Sched.Reclaim.run g table ~mapping ~config ~deadline
                           schedule))
                      .Sched.Reclaim.schedule
                | _ -> schedule
              in
              if req.rtl then
                ignore
                  (Trace.time tr "rtl.lower" (fun () ->
                       Rtl.Backend.lower (Rtl.Backend.request g table schedule)))
          ))

let validate tr (req : Core.Synthesis.request) (resp : Core.Synthesis.response)
    =
  match resp.result with
  | Some r when req.validate ->
      Trace.time tr "check.validate" (fun () ->
          Core.Synthesis.validate req.graph
            (Core.Synthesis.response_table req resp)
            ~deadline:req.deadline r)
  | _ -> ()

(* The wire text of a response after its id: {"id":N, is the prefix
   every response shares, and the rest must match byte for byte. *)
let tail_after_id line =
  match String.index_opt line ',' with
  | Some i -> String.sub line (i + 1) (String.length line - i - 1)
  | None -> line

(* An uncached solve audited by the independent Check oracles; [Ok] is
   the response's wire text after its id. *)
let reference tr (it : Gen.item) =
  tr.Trace.req <- it.id;
  match decode tr it.line with
  | Error msg -> Error msg
  | Ok req -> (
      preheat tr req;
      solve_layers tr req;
      let resp =
        Trace.time tr "synthesis.solve" (fun () -> Core.Synthesis.solve req)
      in
      validate tr req resp;
      let wire () =
        Ok (tail_after_id (Serve.Jsonl.response_to_string ~id:(Obs.Json.Int 0) resp))
      in
      match (resp.status, resp.result, resp.violations) with
      | Core.Synthesis.Ok, Some r, [] -> (
          match
            Core.Synthesis.validate req.graph
              (Core.Synthesis.response_table req resp)
              ~deadline:req.deadline r
          with
          | () -> wire ()
          | exception Check.Violation.Failed rep ->
              Error
                (Printf.sprintf "reference for id %d fails its audit: %s" it.id
                   (String.concat "; "
                      (List.map
                         (fun v -> v.Check.Violation.code)
                         rep.Check.Violation.violations))))
      | (Core.Synthesis.Infeasible | Core.Synthesis.Infeasible_memory), None, []
        ->
          wire ()
      | _ ->
          Error
            (Printf.sprintf "reference for id %d: unexpected status %s" it.id
               (Serve.Jsonl.response_to_string ~id:(Obs.Json.Int it.id) resp)))

(* One request through the daemon's path against [cache], under one
   "request" span; returns the response line, the request and the service
   time in microseconds. *)
let serve tr cache (it : Gen.item) =
  tr.Trace.req <- it.id;
  let t0 = Trace.now_ns () in
  let served =
    Trace.time tr "request" @@ fun () ->
    match decode tr it.line with
    | Error msg -> Error msg
    | Ok req ->
        preheat tr req;
        let key =
          Trace.time tr "cache.digest" (fun () -> Serve.Cache.digest req)
        in
        let cached =
          Trace.time tr "cache.probe" (fun () ->
              Serve.Cache.find_digest cache key)
        in
        let resp =
          match cached with
          | Some resp -> resp
          | None ->
              let resp =
                Trace.time tr "synthesis.solve" (fun () ->
                    Core.Synthesis.solve req)
              in
              Trace.time tr "cache.store" (fun () ->
                  Serve.Cache.store_digest cache key resp);
              resp
        in
        let line =
          Trace.time tr "jsonl.serialize" (fun () ->
              Serve.Jsonl.response_to_string ~id:(Obs.Json.Int it.id) resp)
        in
        Ok (line, req)
  in
  let service_us = float_of_int (Trace.now_ns () - t0) /. 1e3 in
  Result.map (fun (line, req) -> (line, req, service_us)) served
