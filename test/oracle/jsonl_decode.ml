(* The list-based request decode that [Serve.Jsonl] replaced, kept
   whole as its differential oracle: it reads the tree through
   [Option.map (List.map ...)] views and builds the table from row
   lists. On every line, [Serve.Jsonl.line_of_string] must give the same
   [Core.Synthesis.encode] bytes, id, task and period as [line_of_string]
   here, or the same error text. *)

module J = Obs.Json

type lookup = string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option
type item = { id : J.t; request : Core.Synthesis.request }

type line =
  | Solve of item
  | Admit of { id : J.t; task : string; periodic : Core.Synthesis.periodic }
  | Release of { id : J.t; task : string }

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
    let rtl = Option.value (bool_field "rtl" json) ~default:false in
    let budget_ms = int_field "budget_ms" json in
    Ok
      {
        id;
        request =
          Core.Synthesis.request ~scheduler ~validate ~rtl ?budget_ms
            ?levels ~algorithm ~deadline g table;
      }
  in
  match result with
  | Ok item -> Ok item
  | Error (_, msg) -> Error msg

(* --- admission lines -------------------------------------------------- *)

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
  match Json.parse s with
  | Error msg -> Error ("malformed JSON: " ^ msg)
  | Ok json -> line_of_json ?lookup ~line json
