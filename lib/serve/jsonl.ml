module J = Obs.Json

type lookup = string -> seed:int -> (Dfg.Graph.t * Fulib.Table.t) option
type item = { id : J.t; request : Core.Synthesis.request }

type line =
  | Solve of item
  | Admit of { id : J.t; task : string; periodic : Core.Synthesis.periodic }
  | Release of { id : J.t; task : string }

(* --- checks ---------------------------------------------------------- *)

(* Both decoders below hand the values they read to these checks, so each
   error text is written once. The first fault raises [Bad] with the text
   naming the field, caught once per line; the checks run in a fixed
   order, so of two faults the same one is always reported. *)
exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* The faults of an inline instance's shape, which each decoder finds in
   its own walk. *)
let no_instance = "request needs a benchmark or an inline graph + table"
let no_nodes_or_edges = "graph needs nodes and edges"
let nodes_not_list = "graph.nodes must be a list"
let node_unnamed i = Printf.sprintf "graph.nodes[%d] needs a name" i
let edges_not_list = "graph.edges must be a list"

let edge_not_ints i =
  Printf.sprintf
    "graph.edges[%d] must be [src, dst], [src, dst, delay] or [src, dst, \
     delay, size]"
    i

let no_types_time_cost = "table needs types, time and cost"
let types_not_strings = "table.types must be a list of strings"
let capacities_not_ints = "table.mem_capacity must be a list of ints"
let matrix_not_list name = Printf.sprintf "table.%s must be a list of rows" name
let row_not_list name = Printf.sprintf "table.%s rows must be lists" name
let cells_not_ints name = Printf.sprintf "table.%s cells must be ints" name
let fault msg = raise (Bad msg)

let benchmark_instance ?lookup name ~seed =
  match lookup with
  | None -> bad "benchmark requests need a benchmark lookup"
  | Some lookup -> (
      match lookup name ~seed with
      | Some instance -> instance
      | None -> bad "unknown benchmark %S" name)

let library_of ?mem_capacity names =
  match Fulib.Library.make ?mem_capacity names with
  | l -> l
  | exception Invalid_argument msg -> bad "table: %s" msg

let table_of build =
  match build () with
  | t -> t
  | exception Invalid_argument msg -> bad "table: %s" msg

(* every solver indexes the table by graph node *)
let check_rows g t =
  if Fulib.Table.num_nodes t <> Dfg.Graph.num_nodes g then
    bad "table has %d rows but graph has %d nodes" (Fulib.Table.num_nodes t)
      (Dfg.Graph.num_nodes g)

(* Validate before dispatch: a deadline of 0, a negative factor or an
   overflowed [1e999] must die here as a per-line error naming the field,
   not surface later as a solver artifact (or an admission verdict) for a
   constraint that never made sense. *)
let deadline_of deadline factor g table =
  match (deadline, factor) with
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

let algorithm_of = function
  | None -> Assign.Solve.Repeat
  | Some name -> (
      match Assign.Solve.of_name_result name with
      | Stdlib.Ok a -> a
      | Stdlib.Error msg -> raise (Bad msg))

let scheduler_of = function
  | None | Some "list" -> Core.Synthesis.List_scheduling
  | Some "force" -> Core.Synthesis.Force_directed
  | Some s -> bad "unknown scheduler %S" s

(* DVFS knob: ["levels": n] gives every FU type the same n-step uniform
   ladder (100% down to 50%); ["levels": [[100,75],[100,50,25], ...]]
   names per-type frequency percents, one ladder per type, each starting
   at the nominal 100. [freqs] is [None] when some ladder is not a
   non-empty list of ints; the ladder count is checked first. *)
let uniform_levels n table =
  if n >= 1 && n <= 16 then
    Some (Fulib.Dvfs.uniform ~levels:n ~types:(Fulib.Table.num_types table))
  else bad "levels must be in 1..16 (got %d)" n

let ladder_levels ~count freqs table =
  let k = Fulib.Table.num_types table in
  if count <> k then
    bad "levels must give one frequency ladder per FU type (%d)" k;
  match freqs with
  | None -> bad "levels ladders must be non-empty lists of frequency percents"
  | Some freqs -> (
      match Fulib.Dvfs.of_freqs freqs with
      | lv -> Some lv
      | exception Invalid_argument msg -> bad "levels: %s" msg)

let not_levels () =
  bad "levels must be an integer or a list of per-type frequency lists"

let period_of = function
  | None -> Error "admit requests need a period"
  | Some p -> (
      match J.to_int_opt p with
      | Some period when period >= 1 -> Ok period
      | Some period ->
          Error (Printf.sprintf "period must be >= 1 (got %d)" period)
      | None -> Error "period must be an integer")

let line_id ~line = function
  | Some (J.String _ as id) | Some (J.Int _ as id) -> id
  | _ -> J.Int line

(* The admission-controller key: the explicit "task" field, else the line
   id itself, so short admit lines stay one field lighter. *)
let task_name task id =
  match task with
  | Some t -> t
  | None -> ( match id with J.String s -> s | J.Int n -> string_of_int n | _ -> "")

let request_with ~instance ~deadline ~algorithm ~scheduler ~levels ~validate
    ~rtl ~budget_ms =
  let g, table = instance () in
  let deadline = deadline g table in
  let algorithm = algorithm_of algorithm in
  let scheduler = scheduler_of scheduler in
  let levels = levels table in
  let validate = Option.value validate ~default:false in
  let rtl = Option.value rtl ~default:false in
  Core.Synthesis.request ~scheduler ~validate ~rtl ?budget_ms ?levels
    ~algorithm ~deadline g table

(* Dispatch on the line's "cmd": [request] decodes the solve part and
   [period] the admit period, each only when the command reads it. *)
let line_with ~id ~cmd ~task ~request ~period =
  let solve () =
    match request () with
    | request -> Ok { id; request }
    | exception Bad msg -> Error msg
  in
  match cmd with
  | None | Some "solve" -> Result.map (fun item -> Solve item) (solve ())
  | Some "admit" ->
      let ( let* ) = Result.bind in
      let* item = solve () in
      let* period = period () in
      Ok
        (Admit
           {
             id;
             task = task_name task id;
             periodic = { Core.Synthesis.request = item.request; period };
           })
  | Some "release" -> Ok (Release { id; task = task_name task id })
  | Some cmd -> Error (Printf.sprintf "unknown cmd %S" cmd)

(* --- the tree decoder ------------------------------------------------ *)

(* [line_of_json] reads a parsed tree; only [bench/e2e]'s replay calls
   it. It matches [J.List] and [J.Int] directly and fills arrays sized
   from each list. *)

let field name json = J.member name json
let string_field name json = Option.bind (field name json) J.to_string_opt
let int_field name json = Option.bind (field name json) J.to_int_opt

let bool_field name json =
  match field name json with Some (J.Bool b) -> Some b | _ -> None

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
          | None -> fault (node_unnamed i)
          | Some name -> (
              names.(i) <- name;
              match string_field "op" node with
              | Some op -> ops.(i) <- op
              | None -> ()))
        nodes;
      (names, ops)
  | _ -> fault nodes_not_list

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
        | _ -> fault (edge_not_ints i)
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
        | _ -> fault edges_not_list
      in
      match Dfg.Graph.of_edges ~names ~ops edges with
      | g -> g
      | exception Invalid_argument msg -> bad "graph: %s" msg)
  | _ -> fault no_nodes_or_edges

let rec fill_rows name m v = function
  | [] -> m
  | J.List cells :: rest ->
      (m.(v) <-
         (try ints_of cells with Not_ints -> fault (cells_not_ints name)));
      fill_rows name m (v + 1) rest
  | _ :: _ -> fault (row_not_list name)

let parse_matrix name = function
  | J.List rows -> fill_rows name (Array.make (List.length rows) [||]) 0 rows
  | _ -> fault (matrix_not_list name)

let parse_table json =
  match (field "types" json, field "time" json, field "cost" json) with
  | Some types, Some time, Some cost ->
      let names =
        match types with
        | J.List l ->
            Array.of_list
              (List.map
                 (function J.String s -> s | _ -> fault types_not_strings)
                 l)
        | _ -> fault types_not_strings
      in
      let mem_capacity =
        match field "mem_capacity" json with
        | None -> None
        | Some (J.List cells) -> (
            try Some (ints_of cells) with Not_ints -> fault capacities_not_ints)
        | Some _ -> fault capacities_not_ints
      in
      let library = library_of ?mem_capacity names in
      let time = parse_matrix "time" time in
      let cost = parse_matrix "cost" cost in
      table_of (fun () -> Fulib.Table.make ~library ~time ~cost)
  | _ -> fault no_types_time_cost

let parse_instance ?lookup json () =
  match string_field "benchmark" json with
  | Some name ->
      let seed = Option.value (int_field "seed" json) ~default:42 in
      benchmark_instance ?lookup name ~seed
  | None -> (
      match (field "graph" json, field "table" json) with
      | Some graph, Some table ->
          let g = parse_graph graph in
          let t = parse_table table in
          check_rows g t;
          (g, t)
      | _ -> fault no_instance)

let parse_levels json table =
  match field "levels" json with
  | None -> None
  | Some (J.Int n) -> uniform_levels n table
  | Some (J.List ladders) ->
      let freqs =
        try
          Some
            (List.map
               (function
                 | J.List (_ :: _ as cells) -> Array.to_list (ints_of cells)
                 | _ -> raise Not_ints)
               ladders)
        with Not_ints -> None
      in
      ladder_levels ~count:(List.length ladders) freqs table
  | Some _ -> not_levels ()

let line_of_json ?lookup ~line json =
  line_with
    ~id:(line_id ~line (field "id" json))
    ~cmd:(string_field "cmd" json) ~task:(string_field "task" json)
    ~request:(fun () ->
      request_with
        ~instance:(parse_instance ?lookup json)
        ~deadline:(deadline_of (field "deadline" json)
                     (field "deadline_factor" json))
        ~algorithm:(string_field "algorithm" json)
        ~scheduler:(string_field "scheduler" json)
        ~levels:(parse_levels json)
        ~validate:(bool_field "validate" json)
        ~rtl:(bool_field "rtl" json)
        ~budget_ms:(int_field "budget_ms" json))
    ~period:(fun () -> period_of (field "period" json))

(* --- the one-pass decoder -------------------------------------------- *)

(* [line_of_string] walks the line once with [Obs.Json]'s cursor and
   builds no tree. Integers go straight from the bytes onto per-domain
   stacks and leave them as exact-length arrays: the edge columns, the
   table rows, the node names and ops. What the walk keeps is a [scan]:
   each field's first value, or the first fault of a container, in the
   tree decoder's words. No fault is raised during the walk, so a syntax
   error anywhere in the line wins; once the line has parsed, [line_with]
   runs the checks on the scan in their fixed order, whatever order the
   fields came in. Scalars are kept as the [J.t] the tree would hold,
   with [Null] for a container and for an absent field, which every
   check reads as the wrong type. *)

(* Each part of an inline graph or table: [None] when absent, else what
   it holds or the fault of its first bad element. *)
type 'a part = ('a, string) result option

type graph_scan = {
  mutable nodes : (string array * string array) part;  (* names, ops *)
  mutable edges : (int array * int array * int array * int array) part;
      (* src, dst, delay, size *)
}

type table_scan = {
  mutable types : string array part;
  mutable time : (int array * int array) part;
      (* the cells (the domain's [time] stack, read before the next line)
         and where each row ends *)
  mutable cost : (int array * int array) part;
  mutable mem_capacity : int array part;
}

type levels = Uniform of int | Ladders of int * int list list option | Other

type scan = {
  mutable id : J.t;
  mutable cmd : J.t;
  mutable task : J.t;
  mutable benchmark : J.t;
  mutable seed : J.t;
  mutable graph : graph_scan option;
  mutable table : table_scan option;
  mutable deadline : J.t option;
  mutable deadline_factor : J.t option;
  mutable algorithm : J.t;
  mutable scheduler : J.t;
  mutable levels : levels option;
  mutable validate : J.t;
  mutable rtl : J.t;
  mutable budget_ms : J.t;
  mutable period : J.t option;
}

(* The stacks a walk reads arrays onto, one set per domain: a pool
   decodes on every domain. A stack that grew past [max_kept] is dropped
   after its line, so one huge line does not pin its size. *)
type strings = { mutable items : string array; mutable count : int }

type stacks = {
  cells : J.ints;  (* the edges, four ints each; capacities; one ladder *)
  time : J.ints * J.ints;  (* table.time's cells and row ends *)
  cost : J.ints * J.ints;
  names : strings;  (* node names, then FU type names *)
  ops : strings;
  node : string array;  (* one node's name and op *)
}

let initial = 256
let max_kept = 1 lsl 16
let fresh_ints () = { J.data = Array.make initial 0; size = 0 }
let fresh_strings () = { items = Array.make initial ""; count = 0 }

let stacks =
  Domain.DLS.new_key (fun () ->
      {
        cells = fresh_ints ();
        time = (fresh_ints (), fresh_ints ());
        cost = (fresh_ints (), fresh_ints ());
        names = fresh_strings ();
        ops = fresh_strings ();
        node = [| ""; "" |];
      })

(* [J.push] for the decoder's own pushes: a call into [Obs.Json] is an
   indirect call, one per edge or row. *)
let push_int (b : J.ints) x =
  if b.size = Array.length b.data then J.push b x
  else begin
    Array.unsafe_set b.data b.size x;
    b.size <- b.size + 1
  end

let push_string s x =
  if s.count = Array.length s.items then begin
    let a = Array.make (2 * s.count) "" in
    Array.blit s.items 0 a 0 s.count;
    s.items <- a
  end;
  Array.unsafe_set s.items s.count x;
  s.count <- s.count + 1

let trim st =
  let trim_ints (b : J.ints) =
    if Array.length b.data > max_kept then b.data <- Array.make initial 0
  in
  let trim_strings s =
    if Array.length s.items > max_kept then s.items <- Array.make initial ""
  in
  trim_ints st.cells;
  trim_ints (fst st.time);
  trim_ints (snd st.time);
  trim_ints (fst st.cost);
  trim_ints (snd st.cost);
  trim_strings st.names;
  trim_strings st.ops

let strings s = Array.sub s.items 0 s.count

(* Column [o] of the four-wide rows in [b]. *)
let column (b : J.ints) o =
  let a = Array.make (b.size / 4) 0 in
  for j = 0 to Array.length a - 1 do
    Array.unsafe_set a j (Array.unsafe_get b.data ((4 * j) + o))
  done;
  a

(* The next value if it is a scalar, as the tree would hold it, else
   [Null]; a container is checked and skipped. *)
let scalar c =
  match J.next_value c with
  | '"' -> J.String (J.string c)
  | '-' | '0' .. '9' -> J.number c
  | 't' ->
      J.skip c;
      J.Bool true
  | 'f' ->
      J.skip c;
      J.Bool false
  | _ ->
      J.skip c;
      J.Null

(* [each_item c f] calls [f i] with the cursor on the [i]-th item of the
   array it is on, which [f] must read; [false], with the value skipped,
   when it is not an array. *)
let each_item c f =
  if J.next_value c <> '[' then begin
    J.skip c;
    false
  end
  else begin
    if J.open_array c then begin
      let i = ref 0 and more = ref true in
      while !more do
        f !i;
        incr i;
        more := J.next_item c
      done
    end;
    true
  end

(* [each_field c words f] calls [f k] with the cursor on the value of the
   first key equal to [words.(k)], which [f] must read; other keys and
   later duplicates are skipped, and so is a value that is not an
   object. *)
let each_field c words f =
  if J.next_value c <> '{' then J.skip c
  else if J.open_object c then begin
    let seen = ref 0 and more = ref true in
    while !more do
      let k = J.key c words in
      if k >= 0 && !seen land (1 lsl k) = 0 then begin
        seen := !seen lor (1 lsl k);
        f k
      end
      else J.skip c;
      more := J.next_field c
    done
  end

let node_fields = [| "name"; "op" |]

let scan_nodes c st =
  let names = st.names and ops = st.ops and node = st.node in
  names.count <- 0;
  ops.count <- 0;
  let fault = ref None in
  let listed =
    each_item c (fun i ->
        let got = J.string_fields c node_fields node in
        let named = got >= 0 && got land 1 <> 0 in
        push_string names (if named then node.(0) else "");
        push_string ops (if got >= 0 && got land 2 <> 0 then node.(1) else "op");
        if (not named) && Option.is_none !fault then fault := Some (node_unnamed i))
  in
  match (listed, !fault) with
  | false, _ -> Error nodes_not_list
  | true, Some msg -> Error msg
  | true, None -> Ok (strings names, strings ops)

(* Each edge is pushed as four ints, delay and size defaulting to 0, or
   rolled back unless it is a list of two to four ints. *)
let scan_edges c st =
  let cells = st.cells in
  cells.size <- 0;
  let fault = ref None in
  let listed =
    each_item c (fun i ->
        let start = cells.size in
        let read = J.ints c cells in
        let count = cells.size - start in
        match read with
        | J.All_ints when count >= 2 && count <= 4 ->
            for _ = count to 3 do
              push_int cells 0
            done
        | _ ->
            cells.size <- start;
            if Option.is_none !fault then fault := Some (edge_not_ints i))
  in
  match (listed, !fault) with
  | false, _ -> Error edges_not_list
  | true, Some msg -> Error msg
  | true, None ->
      Ok (column cells 0, column cells 1, column cells 2, column cells 3)

let graph_fields = [| "nodes"; "edges" |]

let scan_graph c st =
  let g = { nodes = None; edges = None } in
  each_field c graph_fields (fun k ->
      if k = 0 then g.nodes <- Some (scan_nodes c st)
      else g.edges <- Some (scan_edges c st));
  g

(* table.time or table.cost onto its own stacks: the fault of the first
   bad row, else the cells and where each row ends. The table is built
   straight from the cells, so they are not copied out. *)
let scan_matrix c ((cells : J.ints), (ends : J.ints)) name =
  cells.size <- 0;
  ends.size <- 0;
  let fault = ref None in
  let listed =
    each_item c (fun _ ->
        (match J.ints c cells with
        | J.All_ints -> ()
        | J.Not_all_ints ->
            if Option.is_none !fault then fault := Some (cells_not_ints name)
        | J.Not_a_list ->
            if Option.is_none !fault then fault := Some (row_not_list name));
        push_int ends cells.size)
  in
  match (listed, !fault) with
  | false, _ -> Error (matrix_not_list name)
  | true, Some msg -> Error msg
  | true, None -> Ok (cells.data, Array.sub ends.data 0 ends.size)

let table_fields = [| "types"; "time"; "cost"; "mem_capacity" |]

let scan_table c st =
  let t = { types = None; time = None; cost = None; mem_capacity = None } in
  each_field c table_fields (function
    | 0 ->
        let names = st.names and all = ref true in
        names.count <- 0;
        let listed =
          each_item c (fun _ ->
              if J.next_value c = '"' then push_string names (J.string c)
              else begin
                J.skip c;
                all := false
              end)
        in
        t.types <-
          Some (if listed && !all then Ok (strings names) else Error types_not_strings)
    | 1 -> t.time <- Some (scan_matrix c st.time "time")
    | 2 -> t.cost <- Some (scan_matrix c st.cost "cost")
    | _ ->
        let cells = st.cells in
        cells.size <- 0;
        t.mem_capacity <-
          Some
            (match J.ints c cells with
            | J.All_ints -> Ok (Array.sub cells.data 0 cells.size)
            | J.Not_all_ints | J.Not_a_list -> Error capacities_not_ints));
  t

let scan_levels c st =
  match J.next_value c with
  | '-' | '0' .. '9' -> (
      match J.number c with J.Int n -> Uniform n | _ -> Other)
  | '[' ->
      let cells = st.cells in
      let count = ref 0 and freqs = ref (Some []) in
      ignore
        (each_item c (fun _ ->
             incr count;
             cells.size <- 0;
             match (J.ints c cells, !freqs) with
             | J.All_ints, Some l when cells.size > 0 ->
                 freqs := Some (Array.to_list (Array.sub cells.data 0 cells.size) :: l)
             | _ -> freqs := None));
      Ladders (!count, Option.map List.rev !freqs)
  | _ ->
      J.skip c;
      Other

let fields =
  [|
    "id"; "cmd"; "task"; "benchmark"; "seed"; "graph"; "table"; "deadline";
    "deadline_factor"; "algorithm"; "scheduler"; "levels"; "validate"; "rtl";
    "budget_ms"; "period";
  |]

let scan c st =
  let s =
    {
      id = J.Null;
      cmd = J.Null;
      task = J.Null;
      benchmark = J.Null;
      seed = J.Null;
      graph = None;
      table = None;
      deadline = None;
      deadline_factor = None;
      algorithm = J.Null;
      scheduler = J.Null;
      levels = None;
      validate = J.Null;
      rtl = J.Null;
      budget_ms = J.Null;
      period = None;
    }
  in
  (* in the order of [fields] *)
  each_field c fields (function
      | 0 -> s.id <- scalar c
      | 1 -> s.cmd <- scalar c
      | 2 -> s.task <- scalar c
      | 3 -> s.benchmark <- scalar c
      | 4 -> s.seed <- scalar c
      | 5 -> s.graph <- Some (scan_graph c st)
      | 6 -> s.table <- Some (scan_table c st)
      | 7 -> s.deadline <- Some (scalar c)
      | 8 -> s.deadline_factor <- Some (scalar c)
      | 9 -> s.algorithm <- scalar c
      | 10 -> s.scheduler <- scalar c
      | 11 -> s.levels <- Some (scan_levels c st)
      | 12 -> s.validate <- scalar c
      | 13 -> s.rtl <- scalar c
      | 14 -> s.budget_ms <- scalar c
      | _ -> s.period <- Some (scalar c));
  J.finish c;
  s

let held = function Ok v -> v | Error msg -> fault msg

(* The checks of [parse_graph] and [parse_table], in their order, on what
   the scan kept. *)
let graph_of (g : graph_scan) =
  match (g.nodes, g.edges) with
  | Some nodes, Some edges -> (
      let names, ops = held nodes in
      let src, dst, delay, size = held edges in
      match Dfg.Graph.of_edge_arrays ~names ~ops ~src ~dst ~delay ~size with
      | g -> g
      | exception Invalid_argument msg -> bad "graph: %s" msg)
  | _ -> fault no_nodes_or_edges

let table_of_scan (t : table_scan) =
  match (t.types, t.time, t.cost) with
  | Some types, Some time, Some cost ->
      let names = held types in
      let mem_capacity = Option.map held t.mem_capacity in
      let library = library_of ?mem_capacity names in
      let time = held time in
      let cost = held cost in
      table_of (fun () -> Fulib.Table.of_rows ~library ~time ~cost)
  | _ -> fault no_types_time_cost

let instance_of ?lookup s () =
  match J.to_string_opt s.benchmark with
  | Some name ->
      let seed = Option.value (J.to_int_opt s.seed) ~default:42 in
      benchmark_instance ?lookup name ~seed
  | None -> (
      match (s.graph, s.table) with
      | Some graph, Some table ->
          let g = graph_of graph in
          let t = table_of_scan table in
          check_rows g t;
          (g, t)
      | _ -> fault no_instance)

let levels_of s table =
  match s.levels with
  | None -> None
  | Some (Uniform n) -> uniform_levels n table
  | Some (Ladders (count, freqs)) -> ladder_levels ~count freqs table
  | Some Other -> not_levels ()

let bool = function J.Bool b -> Some b | _ -> None

let line_of_scan ?lookup ~line s =
  line_with
    ~id:(line_id ~line (Some s.id))
    ~cmd:(J.to_string_opt s.cmd) ~task:(J.to_string_opt s.task)
    ~request:(fun () ->
      request_with ~instance:(instance_of ?lookup s)
        ~deadline:(deadline_of s.deadline s.deadline_factor)
        ~algorithm:(J.to_string_opt s.algorithm)
        ~scheduler:(J.to_string_opt s.scheduler)
        ~levels:(levels_of s) ~validate:(bool s.validate) ~rtl:(bool s.rtl)
        ~budget_ms:(J.to_int_opt s.budget_ms))
    ~period:(fun () -> period_of s.period)

let line_of_string ?lookup ~line text =
  let st = Domain.DLS.get stacks in
  let scanned =
    match scan (J.cursor text) st with
    | s -> Ok s
    | exception J.Parse_error msg -> Error ("malformed JSON: " ^ msg)
  in
  trim st;
  Result.bind scanned (line_of_scan ?lookup ~line)

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

(* Every field of a response line but its id, in wire order. *)
let response_fields (resp : Core.Synthesis.response) =
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
  status_fields resp.Core.Synthesis.status
  @ result_fields
  @ rtl_fields resp
  @ [
      ( "violations",
        J.List (List.map violation_json resp.Core.Synthesis.violations) );
      ( "stats",
        J.Obj
          (List.map (fun (k, v) -> (k, J.Int v)) resp.Core.Synthesis.stats) );
    ]

(* The one place a response is rendered. [J.Obj] prints its fields in
   order, so the line with the id first is [{"id":<id>,] followed by the
   object of the other fields without its opening brace. *)
let response_body resp =
  let obj = J.to_string (J.Obj (response_fields resp)) in
  String.sub obj 1 (String.length obj - 1)

let splice ~id body = String.concat "" [ {|{"id":|}; J.to_string id; ","; body ]
let response_to_string ~id resp = splice ~id (response_body resp)

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
