module J = Obs.Json

type lookup = string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option
type item = { id : J.t; request : Core.Synthesis.request }

(* --- field accessors ------------------------------------------------- *)

let field name json = J.member name json

let string_field name json =
  Option.bind (field name json) J.to_string_opt

let int_field name json = Option.bind (field name json) J.to_int_opt

let bool_field name json =
  match field name json with Some (J.Bool b) -> Some b | _ -> None

(* --- instance parsing ------------------------------------------------ *)

(* The decoders below match [J.List] and [J.Int] directly and fill arrays
   sized from the list, with no intermediate option lists. The first bad
   element raises [Bad] with the text naming the field, caught once in
   [request_of_json]; fields are read in a fixed order, so the first
   fault in that order is the one reported. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

exception Not_ints

let rec fill_ints a i = function
  | [] -> a
  | J.Int x :: rest ->
      a.(i) <- x;
      fill_ints a (i + 1) rest
  | _ :: _ -> raise Not_ints

let ints_of cells = fill_ints (Array.make (List.length cells) 0) 0 cells

let parse_nodes = function
  | J.List nodes ->
      let n = List.length nodes in
      let names = Array.make n "" and ops = Array.make n "op" in
      List.iteri
        (fun i node ->
          match string_field "name" node with
          | None -> bad "graph.nodes[%d] needs a name" i
          | Some name -> (
              names.(i) <- name;
              match string_field "op" node with
              | Some op -> ops.(i) <- op
              | None -> ()))
        nodes;
      (names, ops)
  | _ -> bad "graph.nodes must be a list"

let rec edges_of i = function
  | [] -> []
  | e :: rest ->
      let edge =
        match e with
        | J.List [ J.Int src; J.Int dst ] ->
            { Dfg.Graph.src; dst; delay = 0; size = 0 }
        | J.List [ J.Int src; J.Int dst; J.Int delay ] ->
            { Dfg.Graph.src; dst; delay; size = 0 }
        | J.List [ J.Int src; J.Int dst; J.Int delay; J.Int size ] ->
            { Dfg.Graph.src; dst; delay; size }
        | _ ->
            bad
              "graph.edges[%d] must be [src, dst], [src, dst, delay] or \
               [src, dst, delay, size]"
              i
      in
      edge :: edges_of (i + 1) rest
[@@tail_mod_cons]

let parse_graph json =
  match (field "nodes" json, field "edges" json) with
  | Some nodes, Some edges -> (
      let names, ops = parse_nodes nodes in
      let edges =
        match edges with
        | J.List l -> edges_of 0 l
        | _ -> bad "graph.edges must be a list"
      in
      match Dfg.Graph.of_edges ~names ~ops edges with
      | g -> g
      | exception Invalid_argument msg -> bad "graph: %s" msg)
  | _ -> bad "graph needs nodes and edges"

let rec fill_rows name m v = function
  | [] -> m
  | J.List cells :: rest ->
      (m.(v) <-
         (try ints_of cells
          with Not_ints -> bad "table.%s cells must be ints" name));
      fill_rows name m (v + 1) rest
  | _ :: _ -> bad "table.%s rows must be lists" name

let parse_matrix name = function
  | J.List rows -> fill_rows name (Array.make (List.length rows) [||]) 0 rows
  | _ -> bad "table.%s must be a list of rows" name

let parse_table json =
  match (field "types" json, field "time" json, field "cost" json) with
  | Some types, Some time, Some cost -> (
      let names =
        match types with
        | J.List l ->
            Array.of_list
              (List.map
                 (function
                   | J.String s -> s
                   | _ -> bad "table.types must be a list of strings")
                 l)
        | _ -> bad "table.types must be a list of strings"
      in
      let mem_capacity =
        match field "mem_capacity" json with
        | None -> None
        | Some (J.List cells) -> (
            try Some (ints_of cells)
            with Not_ints -> bad "table.mem_capacity must be a list of ints")
        | Some _ -> bad "table.mem_capacity must be a list of ints"
      in
      let library =
        match Fulib.Library.make ?mem_capacity names with
        | l -> l
        | exception Invalid_argument msg -> bad "table: %s" msg
      in
      let time = parse_matrix "time" time in
      let cost = parse_matrix "cost" cost in
      match Fulib.Table.make ~library ~time ~cost with
      | t -> t
      | exception Invalid_argument msg -> bad "table: %s" msg)
  | _ -> bad "table needs types, time and cost"

let parse_instance ?lookup json =
  match string_field "benchmark" json with
  | Some name -> (
      let seed = Option.value (int_field "seed" json) ~default:42 in
      match lookup with
      | None -> bad "benchmark requests need a benchmark lookup"
      | Some lookup -> (
          match lookup name ~seed with
          | Some instance -> instance
          | None -> bad "unknown benchmark %S" name))
  | None -> (
      match (field "graph" json, field "table" json) with
      | Some graph, Some table ->
          let g = parse_graph graph in
          let t = parse_table table in
          (* every solver indexes the table by graph node *)
          if Fulib.Table.num_nodes t <> Dfg.Graph.num_nodes g then
            bad "table has %d rows but graph has %d nodes"
              (Fulib.Table.num_nodes t) (Dfg.Graph.num_nodes g);
          (g, t)
      | _ -> bad "request needs a benchmark or an inline graph + table")

(* --- request parsing ------------------------------------------------- *)

(* Validate before dispatch: a deadline of 0, a negative factor or an
   overflowed [1e999] must die here as a per-line error naming the field,
   not surface later as a solver artifact (or an admission verdict) for a
   constraint that never made sense. *)
let parse_deadline json g table =
  match (field "deadline" json, field "deadline_factor" json) with
  | Some d, _ -> (
      match J.to_int_opt d with
      | Some deadline when deadline >= 1 -> deadline
      | Some deadline -> bad "deadline must be >= 1 (got %d)" deadline
      | None -> bad "deadline must be an integer")
  | None, Some f -> (
      match J.to_float_opt f with
      | Some factor when Float.is_finite factor && factor > 0.0 ->
          let tmin = Core.Synthesis.min_deadline g table in
          (* Range-check the product in float: [int_of_float] past
             [max_int] is unspecified, and [max tmin] would turn its
             garbage into the factor-1.0 deadline. *)
          let deadline = factor *. float_of_int tmin in
          if deadline < Float.of_int max_int then
            max tmin (int_of_float deadline)
          else
            bad
              "deadline_factor %g times the minimum deadline %d is out of \
               range"
              factor tmin
      | Some factor ->
          bad "deadline_factor must be a finite number > 0 (got %g)" factor
      | None -> bad "deadline_factor must be a number")
  | None, None -> bad "request needs a deadline or a deadline_factor"

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
  | None -> None
  | Some (J.Int n) ->
      if n >= 1 && n <= 16 then
        Some
          (Fulib.Dvfs.uniform ~levels:n ~types:(Fulib.Table.num_types table))
      else bad "levels must be in 1..16 (got %d)" n
  | Some (J.List ladders) -> (
      let k = Fulib.Table.num_types table in
      if List.length ladders <> k then
        bad "levels must give one frequency ladder per FU type (%d)" k;
      let freqs =
        try
          List.map
            (function
              | J.List (_ :: _ as cells) -> Array.to_list (ints_of cells)
              | _ -> raise Not_ints)
            ladders
        with Not_ints ->
          bad "levels ladders must be non-empty lists of frequency percents"
      in
      match Fulib.Dvfs.of_freqs freqs with
      | lv -> Some lv
      | exception Invalid_argument msg -> bad "levels: %s" msg)
  | Some _ ->
      bad "levels must be an integer or a list of per-type frequency lists"

let line_id ~line json =
  match field "id" json with
  | Some (J.String _ as id) | Some (J.Int _ as id) -> id
  | _ -> J.Int line

let request_of_json ?lookup ~line json =
  match
    let g, table = parse_instance ?lookup json in
    let deadline = parse_deadline json g table in
    let algorithm =
      match string_field "algorithm" json with
      | None -> Assign.Solve.Repeat
      | Some name -> (
          match Assign.Solve.of_name_result name with
          | Stdlib.Ok a -> a
          | Stdlib.Error msg -> raise (Bad msg))
    in
    let scheduler =
      match string_field "scheduler" json with
      | None | Some "list" -> Core.Synthesis.List_scheduling
      | Some "force" -> Core.Synthesis.Force_directed
      | Some s -> bad "unknown scheduler %S" s
    in
    let levels = parse_levels json table in
    let validate = Option.value (bool_field "validate" json) ~default:false in
    let rtl = Option.value (bool_field "rtl" json) ~default:false in
    let budget_ms = int_field "budget_ms" json in
    {
      id = line_id ~line json;
      request =
        Core.Synthesis.request ~scheduler ~validate ~rtl ?budget_ms
          ?levels ~algorithm ~deadline g table;
    }
  with
  | item -> Ok item
  | exception Bad msg -> Error msg

(* --- admission lines -------------------------------------------------- *)

type line =
  | Solve of item
  | Admit of { id : J.t; task : string; periodic : Core.Synthesis.periodic }
  | Release of { id : J.t; task : string }

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
   like Check violations ({code, node, detail}). The digests were taken
   when the response was solved; this only prints them. *)
let rtl_fields (resp : Core.Synthesis.response) =
  match resp.Core.Synthesis.rtl with
  | None -> []
  | Some r ->
      let st = r.Rtl.Backend.stats in
      let hex d = J.String (Digest.to_hex d) in
      [
        ( "rtl",
          J.Obj
            [
              ("module_digest", hex r.Rtl.Backend.module_digest);
              ( "testbench_digest",
                match r.Rtl.Backend.testbench_digest with
                | Some d -> hex d
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

(* Witness objects carry exactly the numbers of the inequality a
   rejection claims, so a wire client can verify it itself. *)
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
