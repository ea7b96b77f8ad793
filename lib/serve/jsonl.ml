module J = Obs.Json

type lookup = string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option
type item = { id : J.t; request : Core.Synthesis.request }

let malformed = Obs.Counter.make "serve.jsonl.malformed"

(* --- field accessors ------------------------------------------------- *)

let field name json = J.member name json

let string_field name json =
  Option.bind (field name json) J.to_string_opt

let int_field name json = Option.bind (field name json) J.to_int_opt

let bool_field name json =
  match field name json with Some (J.Bool b) -> Some b | _ -> None

(* --- instance parsing ------------------------------------------------ *)

let parse_nodes json =
  match J.to_list_opt json with
  | None -> Error "graph.nodes must be a list"
  | Some nodes ->
      let n = List.length nodes in
      let names = Array.make n "" and ops = Array.make n "op" in
      let rec fill i = function
        | [] -> Ok (names, ops)
        | node :: rest -> (
            match string_field "name" node with
            | None -> Error (Printf.sprintf "graph.nodes[%d] needs a name" i)
            | Some name ->
                names.(i) <- name;
                (match string_field "op" node with
                | Some op -> ops.(i) <- op
                | None -> ());
                fill (i + 1) rest)
      in
      fill 0 nodes

let parse_edges json =
  match J.to_list_opt json with
  | None -> Error "graph.edges must be a list"
  | Some edges ->
      let rec fill i acc = function
        | [] -> Ok (List.rev acc)
        | edge :: rest -> (
            match Option.map (List.map J.to_int_opt) (J.to_list_opt edge) with
            | Some [ Some src; Some dst ] ->
                fill (i + 1)
                  ({ Dfg.Graph.src; dst; delay = 0; size = 0 } :: acc)
                  rest
            | Some [ Some src; Some dst; Some delay ] ->
                fill (i + 1) ({ Dfg.Graph.src; dst; delay; size = 0 } :: acc) rest
            | Some [ Some src; Some dst; Some delay; Some size ] ->
                fill (i + 1) ({ Dfg.Graph.src; dst; delay; size } :: acc) rest
            | _ ->
                Error
                  (Printf.sprintf
                     "graph.edges[%d] must be [src, dst], [src, dst, delay] \
                      or [src, dst, delay, size]"
                     i))
      in
      fill 0 [] edges

let parse_graph json =
  match (field "nodes" json, field "edges" json) with
  | Some nodes, Some edges -> (
      match (parse_nodes nodes, parse_edges edges) with
      | Ok (names, ops), Ok edges -> (
          try Ok (Dfg.Graph.of_edges ~names ~ops edges)
          with Invalid_argument msg -> Error ("graph: " ^ msg))
      | (Error _ as e), _ | _, (Error _ as e) -> e)
  | _ -> Error "graph needs nodes and edges"

let parse_matrix name json =
  match Option.map (List.map J.to_list_opt) (J.to_list_opt json) with
  | None -> Error (Printf.sprintf "table.%s must be a list of rows" name)
  | Some rows ->
      let rec fill acc = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | None :: _ ->
            Error (Printf.sprintf "table.%s rows must be lists" name)
        | Some row :: rest -> (
            match
              List.fold_right
                (fun cell acc ->
                  match (J.to_int_opt cell, acc) with
                  | Some v, Some vs -> Some (v :: vs)
                  | _ -> None)
                row (Some [])
            with
            | None -> Error (Printf.sprintf "table.%s cells must be ints" name)
            | Some row -> fill (Array.of_list row :: acc) rest)
      in
      fill [] rows

let parse_table json =
  match (field "types" json, field "time" json, field "cost" json) with
  | Some types, Some time, Some cost -> (
      match
        Option.map (List.map J.to_string_opt) (J.to_list_opt types)
      with
      | None -> Error "table.types must be a list of strings"
      | Some names ->
          if List.exists Option.is_none names then
            Error "table.types must be a list of strings"
          else
            let mem_capacity =
              match field "mem_capacity" json with
              | None -> Ok None
              | Some caps -> (
                  match
                    Option.map (List.map J.to_int_opt) (J.to_list_opt caps)
                  with
                  | Some cells when List.for_all Option.is_some cells ->
                      Ok
                        (Some
                           (Array.of_list (List.filter_map Fun.id cells)))
                  | _ -> Error "table.mem_capacity must be a list of ints")
            in
            (match mem_capacity with
            | Error _ as e -> e
            | Ok mem_capacity -> (
                match
                  try
                    Ok
                      (Fulib.Library.make ?mem_capacity
                         (Array.of_list (List.filter_map Fun.id names)))
                  with Invalid_argument msg -> Error ("table: " ^ msg)
                with
                | Error _ as e -> e
                | Ok library -> (
                    match
                      (parse_matrix "time" time, parse_matrix "cost" cost)
                    with
                    | Ok time, Ok cost -> (
                        try Ok (Fulib.Table.make ~library ~time ~cost)
                        with Invalid_argument msg -> Error ("table: " ^ msg))
                    | (Error _ as e), _ | _, (Error _ as e) -> e))))
  | _ -> Error "table needs types, time and cost"

let parse_instance ?lookup json =
  match string_field "benchmark" json with
  | Some name -> (
      let seed = Option.value (int_field "seed" json) ~default:42 in
      match lookup with
      | None -> Error "benchmark requests need a benchmark lookup"
      | Some lookup -> (
          match lookup name ~seed with
          | Some instance -> Ok instance
          | None -> Error (Printf.sprintf "unknown benchmark %S" name)))
  | None -> (
      match (field "graph" json, field "table" json) with
      | Some graph, Some table -> (
          match (parse_graph graph, parse_table table) with
          | Ok g, Ok t -> Ok (g, t)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
      | _ -> Error "request needs a benchmark or an inline graph + table")

(* --- request parsing ------------------------------------------------- *)

(* Validate before dispatch: a deadline of 0, a negative factor or an
   overflowed [1e999] must die here as a per-line error naming the field,
   not surface later as a solver artifact (or an admission verdict) for a
   constraint that never made sense. *)
let parse_deadline json g table =
  match (field "deadline" json, field "deadline_factor" json) with
  | Some d, _ -> (
      match J.to_int_opt d with
      | Some deadline when deadline >= 1 -> Ok deadline
      | Some deadline ->
          Error (Printf.sprintf "deadline must be >= 1 (got %d)" deadline)
      | None -> Error "deadline must be an integer")
  | None, Some f -> (
      match J.to_float_opt f with
      | Some factor when Float.is_finite factor && factor > 0.0 ->
          let tmin = Core.Synthesis.min_deadline g table in
          (* Range-check the product in float: [int_of_float] past
             [max_int] is unspecified, and [max tmin] would turn its
             garbage into the factor-1.0 deadline. *)
          let deadline = factor *. float_of_int tmin in
          if deadline < Float.of_int max_int then
            Ok (max tmin (int_of_float deadline))
          else
            Error
              (Printf.sprintf
                 "deadline_factor %g times the minimum deadline %d is out of \
                  range"
                 factor tmin)
      | Some factor ->
          Error
            (Printf.sprintf
               "deadline_factor must be a finite number > 0 (got %g)" factor)
      | None -> Error "deadline_factor must be a number")
  | None, None -> Error "request needs a deadline or a deadline_factor"

let parse_period json =
  match field "period" json with
  | None -> Error "admit requests need a period"
  | Some p -> (
      match J.to_int_opt p with
      | Some period when period >= 1 -> Ok period
      | Some period ->
          Error (Printf.sprintf "period must be >= 1 (got %d)" period)
      | None -> Error "period must be an integer")

(* DVFS knob: ["levels": n] gives every FU type the same n-step uniform
   ladder (100% down to 50%); ["levels": [[100,75],[100,50,25], ...]]
   names per-type frequency percents, one ladder per type, each starting
   at the nominal 100. *)
let parse_levels json table =
  match field "levels" json with
  | None -> Ok None
  | Some (J.Int n) ->
      if n >= 1 && n <= 16 then
        Ok
          (Some
             (Fulib.Dvfs.uniform ~levels:n
                ~types:(Fulib.Table.num_types table)))
      else Error (Printf.sprintf "levels must be in 1..16 (got %d)" n)
  | Some (J.List ladders) ->
      let k = Fulib.Table.num_types table in
      if List.length ladders <> k then
        Error
          (Printf.sprintf
             "levels must give one frequency ladder per FU type (%d)" k)
      else begin
        let parsed =
          List.map
            (fun l ->
              match Option.map (List.map J.to_int_opt) (J.to_list_opt l) with
              | Some cells when cells <> [] && List.for_all Option.is_some cells
                ->
                  Some (List.filter_map Fun.id cells)
              | _ -> None)
            ladders
        in
        if List.exists Option.is_none parsed then
          Error
            "levels ladders must be non-empty lists of frequency percents"
        else
          match Fulib.Dvfs.of_freqs (List.filter_map Fun.id parsed) with
          | lv -> Ok (Some lv)
          | exception Invalid_argument msg -> Error ("levels: " ^ msg)
      end
  | Some _ ->
      Error "levels must be an integer or a list of per-type frequency lists"

let request_of_json ?lookup ~line json =
  let id =
    match field "id" json with
    | Some (J.String _ as id) | Some (J.Int _ as id) -> id
    | _ -> J.Int line
  in
  let ( let* ) = Result.bind in
  let err msg = Error (id, msg) in
  let lift = function Ok v -> Ok v | Error msg -> Error (id, msg) in
  let result =
    let* g, table = lift (parse_instance ?lookup json) in
    let* deadline = lift (parse_deadline json g table) in
    let* algorithm =
      match string_field "algorithm" json with
      | None -> Ok Assign.Solve.Repeat
      | Some name -> (
          match Assign.Solve.of_name_result name with
          | Stdlib.Ok a -> Ok a
          | Stdlib.Error msg -> err msg)
    in
    let* scheduler =
      match string_field "scheduler" json with
      | None | Some "list" -> Ok Core.Synthesis.List_scheduling
      | Some "force" -> Ok Core.Synthesis.Force_directed
      | Some s -> err (Printf.sprintf "unknown scheduler %S" s)
    in
    let* levels = lift (parse_levels json table) in
    let validate = Option.value (bool_field "validate" json) ~default:false in
    let trace = Option.value (bool_field "trace" json) ~default:false in
    let rtl = Option.value (bool_field "rtl" json) ~default:false in
    let budget_ms = int_field "budget_ms" json in
    Ok
      {
        id;
        request =
          Core.Synthesis.request ~scheduler ~validate ~trace ~rtl ?budget_ms
            ?levels ~algorithm ~deadline g table;
      }
  in
  match result with
  | Ok item -> Ok item
  | Error (_, msg) -> Error msg

let request_of_string ?lookup ~line s =
  match J.parse s with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok json -> request_of_json ?lookup ~line json

(* --- admission lines -------------------------------------------------- *)

type line =
  | Solve of item
  | Admit of { id : J.t; task : string; periodic : Core.Synthesis.periodic }
  | Release of { id : J.t; task : string }

let line_id ~line json =
  match field "id" json with
  | Some (J.String _ as id) | Some (J.Int _ as id) -> id
  | _ -> J.Int line

(* The admission-controller key: the explicit "task" field, else the line
   id itself, so short admit lines stay one field lighter. *)
let task_of json id =
  match string_field "task" json with
  | Some t -> t
  | None -> ( match id with J.String s -> s | J.Int n -> string_of_int n | _ -> "")

let line_of_json ?lookup ~line json =
  let id = line_id ~line json in
  match string_field "cmd" json with
  | None | Some "solve" ->
      Result.map (fun item -> Solve item) (request_of_json ?lookup ~line json)
  | Some "admit" ->
      let ( let* ) = Result.bind in
      let* item = request_of_json ?lookup ~line json in
      let* period = parse_period json in
      Ok
        (Admit
           {
             id;
             task = task_of json id;
             periodic = { Core.Synthesis.request = item.request; period };
           })
  | Some "release" -> Ok (Release { id; task = task_of json id })
  | Some cmd -> Error (Printf.sprintf "unknown cmd %S" cmd)

let line_of_string ?lookup ~line s =
  match J.parse s with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok json -> line_of_json ?lookup ~line json

(* --- response rendering ---------------------------------------------- *)

let status_fields = function
  | Core.Synthesis.Ok -> [ ("status", J.String "ok") ]
  | Core.Synthesis.Infeasible -> [ ("status", J.String "infeasible") ]
  | Core.Synthesis.Infeasible_memory ->
      [ ("status", J.String "infeasible_memory") ]
  | Core.Synthesis.Timeout -> [ ("status", J.String "timeout") ]
  | Core.Synthesis.Error msg ->
      [ ("status", J.String "error"); ("error", J.String msg) ]

let config_json (c : Sched.Config.t) =
  J.List (Array.to_list (Array.map (fun k -> J.Int k) c))

let violation_json (v : Check.Violation.t) =
  J.Obj
    [
      ("code", J.String v.Check.Violation.code);
      ( "node",
        match v.Check.Violation.node with
        | Some n -> J.Int n
        | None -> J.Null );
      ("detail", J.String v.Check.Violation.detail);
    ]

(* Artifacts travel as content digests, not inline text: a wire client
   that wants the RTL itself runs [hetsched rtl]; the digests let it
   detect artifact drift cheaply, and unsupported ops surface exactly
   like Check violations ({code, node, detail}). *)
let rtl_fields (resp : Core.Synthesis.response) =
  match resp.Core.Synthesis.rtl with
  | None -> []
  | Some r ->
      let st = r.Rtl.Backend.stats in
      let digest s = J.String (Digest.to_hex (Digest.string s)) in
      [
        ( "rtl",
          J.Obj
            [
              ("module_digest", digest r.Rtl.Backend.module_text);
              ( "testbench_digest",
                match r.Rtl.Backend.testbench_text with
                | Some tb -> digest tb
                | None -> J.Null );
              ("period", J.Int r.Rtl.Backend.period);
              ("fu_instances", J.Int st.Rtl.Netlist_ir.fu_instances);
              ("registers", J.Int st.Rtl.Netlist_ir.registers);
              ("mux_count", J.Int st.Rtl.Netlist_ir.mux_count);
              ("mux_inputs", J.Int st.Rtl.Netlist_ir.mux_inputs);
              ("wires", J.Int st.Rtl.Netlist_ir.wires);
              ( "unsupported",
                J.List
                  (List.map
                     (fun (u : Rtl.Backend.unsupported) ->
                       J.Obj
                         [
                           ("code", J.String "unsupported-op");
                           ("node", J.Int u.Rtl.Backend.node);
                           ("detail", J.String u.Rtl.Backend.op);
                         ])
                     r.Rtl.Backend.unsupported) );
            ] );
      ]

let response_to_json ~id (resp : Core.Synthesis.response) =
  let result_fields =
    match resp.Core.Synthesis.result with
    | None -> []
    | Some r ->
        [
          ( "algorithm",
            J.String (Core.Synthesis.algorithm_name r.Core.Synthesis.algorithm)
          );
          ("cost", J.Int r.Core.Synthesis.cost);
          ("makespan", J.Int r.Core.Synthesis.makespan);
          ("config", config_json r.Core.Synthesis.config);
          ("lower_bound", config_json r.Core.Synthesis.lower_bound);
        ]
  in
  J.Obj
    ([ ("id", id) ]
    @ status_fields resp.Core.Synthesis.status
    @ result_fields
    @ rtl_fields resp
    @ [
        ( "violations",
          J.List (List.map violation_json resp.Core.Synthesis.violations) );
        ( "stats",
          J.Obj
            (List.map
               (fun (k, v) -> (k, J.Int v))
               resp.Core.Synthesis.stats) );
      ])

let response_to_string ~id resp = J.to_string (response_to_json ~id resp)

let error_to_string ~id msg =
  J.to_string
    (J.Obj
       [ ("id", id); ("status", J.String "error"); ("error", J.String msg) ])

let busy_to_string ~id =
  J.to_string (J.Obj [ ("id", id); ("status", J.String "busy") ])

(* Witness objects carry exactly the numbers [Rt.Verdict.witness_holds]
   re-checks, so a wire client can verify the inequality itself. *)
let witness_json = function
  | Rt.Verdict.Infeasible_deadline -> J.Obj []
  | Rt.Verdict.Synthesis_error msg -> J.Obj [ ("error", J.String msg) ]
  | Rt.Verdict.Period_overrun { min_period; period } ->
      J.Obj [ ("min_period", J.Int min_period); ("period", J.Int period) ]
  | Rt.Verdict.Width_mismatch { expected; got } ->
      J.Obj [ ("expected", J.Int expected); ("got", J.Int got) ]
  | Rt.Verdict.Duplicate_id task -> J.Obj [ ("task", J.String task) ]
  | Rt.Verdict.Insufficient_capacity { ftype; need; have } ->
      J.Obj
        [ ("ftype", J.Int ftype); ("need", J.Int need); ("have", J.Int have) ]
  | Rt.Verdict.Utilization_overrun { utilization; bound } ->
      J.Obj
        [
          ("utilization", J.Float utilization); ("bound", J.Float bound);
        ]
  | Rt.Verdict.Response_overrun { id; response; deadline } ->
      J.Obj
        [
          ("task", J.String id);
          ("response", J.Int response);
          ("deadline", J.Int deadline);
        ]

let verdict_to_json ~id ~task = function
  | Rt.Verdict.Admitted r ->
      J.Obj
        [
          ("id", id);
          ("status", J.String "admitted");
          ("task", J.String task);
          ("heavy", J.Bool r.Rt.Verdict.heavy);
          ("config", config_json r.Rt.Verdict.config);
          ("response_time", J.Int r.Rt.Verdict.response_time);
          ("utilization", J.Float r.Rt.Verdict.utilization);
        ]
  | Rt.Verdict.Rejected reason ->
      J.Obj
        [
          ("id", id);
          ("status", J.String "rejected");
          ("task", J.String task);
          ("reason", J.String (Rt.Verdict.reason_code reason));
          ("witness", witness_json reason);
          ("detail", J.String (Rt.Verdict.reason_detail reason));
        ]

let verdict_to_string ~id ~task v = J.to_string (verdict_to_json ~id ~task v)

let released_to_string ~id ~task ~known =
  if known then
    J.to_string
      (J.Obj
         [
           ("id", id);
           ("status", J.String "released");
           ("task", J.String task);
         ])
  else
    error_to_string ~id (Printf.sprintf "unknown task %S" task)

(* --- channel driver -------------------------------------------------- *)

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
    List.map
      (fun (line, s) ->
        let r = line_of_string ?lookup ~line s in
        (match r with
        | Error _ -> Obs.Counter.incr malformed
        | Ok _ -> ());
        (line, r))
      lines
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
  let responses = Server.solve_batch server requests in
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
        invalid_arg "Serve.Jsonl.serve: response count mismatch"
  in
  let count = emit 0 parsed responses in
  flush output;
  count
