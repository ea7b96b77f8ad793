(* Differentials for the request path. [Obs.Json.parse] must agree with
   the recursive parser it replaced, and [Serve.Jsonl.line_of_string] with
   the list-based decode, both kept in [Oracle]: the same value, or the
   same error text. Inputs are arbitrary bytes (deep nesting included),
   lines of the two smoke files with bytes flipped, truncated or spliced,
   and generated inline DAGs with shuffled ids, delays, sizes, memory
   capacities and DVFS levels. The library side runs on pools of 1 and 2
   domains.

   Two differences are by design. Nesting past [Obs.Json.max_depth] is an
   error here and unbounded recursion in the oracle, which is never run
   on such input. A table whose row count differs from the graph's node
   count is a decode error here; the oracle either raised on it or built
   a request no solver can index.

   Two more checks hold on every input. Whenever [Obs.Json.parse] fails,
   [line_of_string] fails with exactly its text behind "malformed JSON: ",
   depth errors included. Whenever it parses, [line_of_json] on the tree
   (the decode [bench/e2e] builds its reference answers with) equals
   [line_of_string] on the bytes. *)

module J = Obs.Json
module P = Workloads.Prng

let lookup = Workloads.Catalogue.lookup

let depth_error msg =
  match Scanf.sscanf msg "at offset %_d: nesting deeper than %d%!" Fun.id with
  | d -> d = J.max_depth
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false

let mismatch_error msg =
  match
    Scanf.sscanf msg "table has %d rows but graph has %d nodes%!" (fun r n ->
        r <> n)
  with
  | b -> b
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> false

(* --- parse ----------------------------------------------------------- *)

let show = function Ok v -> J.to_string v | Error e -> "error: " ^ e

(* [None] when the two parsers agree (or the input is past the depth
   bound), else a report. [compare], not [=], so a nan would still equal
   itself. *)
let parse_diff s (got : (J.t, string) result) =
  match got with
  | Error e when depth_error e -> None
  | _ ->
      let want = Oracle.Json.parse s in
      if compare got want = 0 then None
      else Some (Printf.sprintf "parse %S: got %s, oracle %s" s (show got) (show want))

(* --- decode ---------------------------------------------------------- *)

(* Everything a decoded line carries that reaches a response: the kind,
   id, task and period, and the request's canonical encoding. *)
let request_fp (r : Core.Synthesis.request) =
  Digest.to_hex (Digest.string (Core.Synthesis.encode r))

let line_fp = function
  | Serve.Jsonl.Solve { id; request } ->
      Printf.sprintf "solve %s %s" (J.to_string id) (request_fp request)
  | Serve.Jsonl.Admit { id; task; periodic } ->
      Printf.sprintf "admit %s %S %d %s" (J.to_string id) task
        periodic.Core.Synthesis.period
        (request_fp periodic.Core.Synthesis.request)
  | Serve.Jsonl.Release { id; task } ->
      Printf.sprintf "release %s %S" (J.to_string id) task

let oracle_fp = function
  | Oracle.Jsonl_decode.Solve { id; request } ->
      Printf.sprintf "solve %s %s" (J.to_string id) (request_fp request)
  | Oracle.Jsonl_decode.Admit { id; task; periodic } ->
      Printf.sprintf "admit %s %S %d %s" (J.to_string id) task
        periodic.Core.Synthesis.period
        (request_fp periodic.Core.Synthesis.request)
  | Oracle.Jsonl_decode.Release { id; task } ->
      Printf.sprintf "release %s %S" (J.to_string id) task

let decode s = Result.map line_fp (Serve.Jsonl.line_of_string ~lookup ~line:7 s)

(* [None] when the byte decoder and the tree decoder agree on [s]: the
   exact [parse] error, or what [line_of_json] makes of the tree. *)
let tree_diff s parsed decoded =
  let want =
    match parsed with
    | Error msg -> Error ("malformed JSON: " ^ msg)
    | Ok json ->
        Result.map line_fp (Serve.Jsonl.line_of_json ~lookup ~line:7 json)
  in
  if want = decoded then None
  else
    let show = function Ok fp -> fp | Error e -> "error: " ^ e in
    Some
      (Printf.sprintf "decode %S: line_of_string %s, tree %s" s (show decoded)
         (show want))

(* The graph and table of an inline line, as the oracle parser sees them:
   true when both are there and their node counts differ. *)
let counts_differ s =
  let len field = Option.bind field J.to_list_opt |> Option.map List.length in
  match Oracle.Json.parse s with
  | Error _ -> false
  | Ok json ->
      let nodes = len (Option.bind (J.member "graph" json) (J.member "nodes")) in
      let rows = len (Option.bind (J.member "table" json) (J.member "time")) in
      nodes <> None && rows <> None && nodes <> rows

let decode_diff s (got : (string, string) result) =
  let malformed = "malformed JSON: " in
  let prefixed e =
    String.starts_with ~prefix:malformed e
    && depth_error
         (String.sub e (String.length malformed)
            (String.length e - String.length malformed))
  in
  match got with
  | Error e when prefixed e -> None
  | Error e when mismatch_error e ->
      if counts_differ s then None
      else Some (Printf.sprintf "decode %S: %s on matching counts" s e)
  | _ ->
      let want =
        match Oracle.Jsonl_decode.line_of_string ~lookup ~line:7 s with
        | Ok l -> Ok (oracle_fp l)
        | Error e -> Error e
        | exception e -> Error ("raised " ^ Printexc.to_string e)
      in
      if got = want then None
      else
        let show = function Ok fp -> fp | Error e -> "error: " ^ e in
        Some
          (Printf.sprintf "decode %S: got %s, oracle %s" s (show got) (show want))

(* Runs the library side of a batch over [pool] (it must never raise),
   then checks each input against the oracles on this domain. *)
let check_batch pool inputs =
  let results =
    Par.Pool.map_array pool
      (fun s ->
        match (J.parse s, decode s) with
        | parsed, decoded -> (
            match tree_diff s parsed decoded with
            | None -> Ok (parsed, decoded)
            | Some report -> Error report)
        | exception e -> Error (Printf.sprintf "%S raised %s" s (Printexc.to_string e)))
      inputs
  in
  Array.iteri
    (fun i r ->
      let s = inputs.(i) in
      match r with
      | Error report -> QCheck.Test.fail_report report
      | Ok (parsed, decoded) -> (
          match parse_diff s parsed with
          | Some report -> QCheck.Test.fail_report report
          | None -> (
              match decode_diff s decoded with
              | Some report -> QCheck.Test.fail_report report
              | None -> ())))
    results;
  true

(* --- inputs: bytes --------------------------------------------------- *)

(* Fragments that reach the parser's edge cases: the 18/19-digit and int
   range boundaries, bare signs and exponents, every escape and surrogate
   shape, literals and their prefixes. *)
let tokens =
  [|
    "{"; "}"; "["; "]"; ","; ":"; " "; "\n"; "\t"; "\"a\""; "\"\""; "\"";
    "0"; "-0"; "7"; "-"; "1e"; "1."; "1.5"; "-.5"; "1E+5"; "2e-3"; "007";
    "123456789012345678"; "-123456789012345678"; "1234567890123456789";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-4611686018427387905"; "99999999999999999999999"; "1e999"; "0x1F";
    "true"; "false"; "null"; "tru"; "nul"; "fals"; "\"\\u00e9\"";
    "\"\\ud83d\\ude00\""; "\"\\ud83d\""; "\"\\udc00\""; "\"\\ud83d\\u0041\"";
    "\"\\uZZZZ\""; "\"\\u12\""; "\"\\x\""; "\"a\\n\\t\\\"\\\\\\/\\b\\f\\r\"";
    "\"caf\xc3\xa9\""; "\"\\"; "\001"; "\"k\":1"; "{\"id\":3}";
  |]

let pick rng a = a.(P.int rng (Array.length a))

let rec random_value rng depth =
  match P.int rng (if depth > 3 then 5 else 7) with
  | 0 -> J.Null
  | 1 -> J.Bool (P.int rng 2 = 0)
  | 2 -> J.Int (P.int_in rng (-1000) 1000)
  | 3 -> J.Float (P.float rng *. 1e6)
  | 4 -> J.String (pick rng [| "a"; "é\n\"q\""; ""; "\\"; "\x01z" |])
  | 5 -> J.List (List.init (P.int rng 4) (fun _ -> random_value rng (depth + 1)))
  | _ ->
      J.Obj
        (List.init (P.int rng 4) (fun i ->
             (Printf.sprintf "k%d" i, random_value rng (depth + 1))))

let random_text rng =
  match P.int rng 4 with
  | 0 -> String.init (P.int rng 80) (fun _ -> Char.chr (P.int rng 256))
  | 1 -> String.concat "" (List.init (P.int rng 12) (fun _ -> pick rng tokens))
  | 2 -> J.to_string (random_value rng 0)
  | _ ->
      (* nesting around the bound, then some tail *)
      let depth =
        pick rng [| J.max_depth - 1; J.max_depth; J.max_depth + 1; 2000 |]
      in
      let opener = pick rng [| "["; "{\"a\":"; " [ " |] in
      let closer = if opener = "{\"a\":" then "}" else "]" in
      let closes = if P.int rng 2 = 0 then depth else P.int rng (depth + 1) in
      String.concat "" (List.init depth (fun _ -> opener))
      ^ pick rng [| "1"; "\"x\""; ""; "[]"; "{}" |]
      ^ String.concat "" (List.init closes (fun _ -> closer))

(* --- inputs: mutated smoke lines ------------------------------------- *)

let smoke_lines =
  lazy
    (List.concat_map
       (fun name ->
         match
           List.find_opt Sys.file_exists [ "../data/" ^ name; "data/" ^ name ]
         with
         | None -> Alcotest.failf "data/%s not found" name
         | Some p ->
             In_channel.with_open_text p In_channel.input_lines
             |> List.filter (fun l -> String.trim l <> ""))
       [ "serve_smoke.jsonl"; "rt_smoke.jsonl" ]
    |> Array.of_list)

let mutate rng s =
  let len = String.length s in
  let at () = P.int rng (len + 1) in
  match P.int rng 5 with
  | 0 when len > 0 ->
      (* flip one byte *)
      let i = P.int rng len in
      let c =
        if P.int rng 2 = 0 then Char.chr (P.int rng 256)
        else "{}[],:\"\\0123456789-.etfn ".[P.int rng 25]
      in
      String.mapi (fun j x -> if j = i then c else x) s
  | 1 -> String.sub s 0 (at ())
  | 2 ->
      (* splice a prefix of this line onto a suffix of another *)
      let other = pick rng (Lazy.force smoke_lines) in
      let j = P.int rng (String.length other + 1) in
      String.sub s 0 (at ()) ^ String.sub other j (String.length other - j)
  | 3 ->
      let i = at () in
      String.sub s 0 i ^ pick rng tokens ^ String.sub s i (len - i)
  | _ when len > 0 ->
      let i = P.int rng len in
      String.sub s 0 i ^ String.sub s (i + 1) (len - i - 1)
  | _ -> s

let mutated_line rng =
  let s = ref (pick rng (Lazy.force smoke_lines)) in
  for _ = 1 to 1 + P.int rng 3 do
    s := mutate rng !s
  done;
  !s

(* --- inputs: generated inline DAGs ----------------------------------- *)

let ints a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a))

(* Replaces element [i] of a list (no-op past the end). *)
let set_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

(* The parts of an inline line that faults are injected into. *)
type parts = {
  nodes : J.t list;
  edges : J.t list;
  types : J.t list;
  time : J.t list;
  cost : J.t list;
  mem : J.t;
}

let inline_json ?(faults = true) rng =
  let n = 1 + P.int rng 40 and k = 1 + P.int rng 3 in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 3) in
  (* shuffled ids: a random relabelling keeps the DAG acyclic *)
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = P.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let edge src dst =
    let delay = if P.int rng 5 = 0 then 1 + P.int rng 3 else 0 in
    let size = if P.int rng 2 = 0 then P.int rng 30 else 0 in
    match P.int rng 3 with
    | 0 when delay = 0 && size = 0 -> ints [| src; dst |]
    | 1 when size = 0 -> ints [| src; dst; delay |]
    | _ -> ints [| src; dst; delay; size |]
  in
  let edges =
    List.map
      (fun (e : Dfg.Graph.edge) -> edge perm.(e.src) perm.(e.dst))
      (Dfg.Graph.edges g)
    (* a delayed back edge may close a loop *)
    @ List.init (P.int rng 3) (fun _ ->
          ints [| P.int rng n; P.int rng n; 1 + P.int rng 2 |])
  in
  let rows lo hi =
    List.init n (fun _ -> ints (Array.init k (fun _ -> P.int_in rng lo hi)))
  in
  let time = rows 1 9 and cost = rows 0 20 in
  let opt p field = if P.int rng 100 < p then [ field ] else [] in
  let nodes =
    List.init n (fun v ->
        J.Obj
          ([ ("name", J.String (Printf.sprintf "v%d" v)) ]
          @ opt 70 ("op", J.String (pick rng [| "add"; "mul"; "sub" |]))))
  in
  (* Most lines carry one or two structural faults, so every decode error
     is reached and two at once must be reported in the oracle's order:
     bad cells, widths, rows, edges, nodes, types and capacities, and row
     counts that differ from the node count. *)
  let anywhere l = P.int rng (max 1 (List.length l)) in
  let junk () = pick rng [| J.String "x"; J.Float 1.5; J.Null; J.List [] |] in
  let row width x = ints (Array.make width x) in
  let fault p =
    match P.int rng 12 with
    | 0 -> { p with time = set_nth p.time (anywhere p.time) (row k 0) }
    | 1 -> { p with cost = set_nth p.cost (anywhere p.cost) (row k (-1)) }
    | 2 -> { p with time = set_nth p.time (anywhere p.time) (row (k + 1) 1) }
    | 3 -> { p with cost = set_nth p.cost (anywhere p.cost) (junk ()) }
    | 4 ->
        let bad = J.List [ J.Int 1; junk () ] in
        { p with time = set_nth p.time (anywhere p.time) bad }
    | 5 ->
        let bad = pick rng [| ints [| 0 |]; J.List [ J.Int 0; junk () ]; junk () |] in
        { p with edges = set_nth p.edges (anywhere p.edges) bad }
    | 6 ->
        (* self-loop, node out of range, negative delay or size *)
        let v = P.int rng n in
        let bad =
          pick rng
            [| ints [| v; v |]; ints [| v; n |]; ints [| -1; v |];
               ints [| 0; v; -1 |]; ints [| 0; v; 0; -2 |] |]
        in
        { p with edges = bad :: p.edges }
    | 7 ->
        (* a zero-delay back edge: a cycle unless it closes nothing *)
        let back =
          match Dfg.Graph.edges g with
          | e :: _ -> ints [| perm.(e.Dfg.Graph.dst); perm.(e.Dfg.Graph.src) |]
          | [] -> ints [| 0; 0 |]
        in
        { p with edges = back :: p.edges }
    | 8 ->
        let bad = pick rng [| J.Obj []; J.Obj [ ("name", J.Int 3) ]; junk () |] in
        { p with nodes = set_nth p.nodes (anywhere p.nodes) bad }
    | 9 -> { p with types = pick rng [| []; set_nth p.types 0 (junk ()) |] }
    | 10 ->
        { p with mem = pick rng [| row 1 1; row k (-1); J.List [ junk () ]; junk () |] }
    | _ ->
        (* one row too few or too many, in both matrices *)
        let fix l = if P.int rng 2 = 0 && n > 1 then List.tl l else row k 1 :: l in
        { p with time = fix p.time; cost = fix p.cost }
  in
  let p =
    {
      nodes;
      edges;
      types = List.init k (fun t -> J.String (Printf.sprintf "P%d" t));
      time;
      cost;
      mem = ints (Array.init k (fun _ -> P.int rng 200));
    }
  in
  let p =
    if not faults then p
    else match P.int rng 4 with 0 -> p | 1 -> fault p | _ -> fault (fault p)
  in
  let ladder () =
    ints (Array.of_list (100 :: List.filter (fun _ -> P.int rng 2 = 0) [ 80; 60; 40; 20 ]))
  in
  (* Without [faults], the same draws pick only valid deadlines and
     names. *)
  let valid d = if faults then d else 3 + (d mod 4) in
  let known name = if faults || name <> "bogus" then name else "repeat" in
  let fields =
    opt 80 ("id", if P.int rng 2 = 0 then J.String "x" else J.Int (P.int rng 99))
    @ opt 20 ("cmd", J.String (pick rng [| "solve"; "admit"; "release" |]))
    @ opt 30 ("period", J.Int (P.int_in rng 0 200))
    @ opt 10 ("task", J.String "t")
    @ opt 97
        ( "graph",
          J.Obj
            (opt 98 ("nodes", J.List p.nodes) @ opt 98 ("edges", J.List p.edges)) )
    @ opt 97
        ( "table",
          J.Obj
            (opt 98 ("types", J.List p.types)
            @ opt 98 ("time", J.List p.time)
            @ opt 98 ("cost", J.List p.cost)
            @ opt 40 ("mem_capacity", p.mem)) )
    @ (match valid (P.int rng 7) with
      | 0 -> []
      | 1 -> [ ("deadline", junk ()) ]
      | 2 ->
          let bad = [| J.Float 1e308; J.Float (-1.0); J.Int 2; J.String "x" |] in
          [ ("deadline_factor", pick rng bad) ]
      | 3 | 4 -> [ ("deadline", J.Int (P.int_in rng 0 300)) ]
      | _ -> [ ("deadline_factor", J.Float (0.5 +. P.float rng)) ])
    @ opt 40 ("algorithm", J.String (known (pick rng [| "repeat"; "greedy"; "tree"; "bogus" |])))
    @ opt 20 ("scheduler", J.String (known (pick rng [| "list"; "force"; "bogus" |])))
    @ opt 20 ("validate", J.Bool (P.int rng 2 = 0))
    @ opt 20 ("rtl", J.Bool (P.int rng 2 = 0))
    @ opt 20 ("trace", J.Bool (P.int rng 2 = 0))
    @ opt 20 ("budget_ms", J.Int (P.int rng 1000))
    @ opt 30
        ( "levels",
          match P.int rng 4 with
          | 0 -> J.Int (P.int_in rng 0 17)
          | 1 -> J.List (List.init k (fun _ -> ladder ()))
          | 2 ->
              let bad = [| J.List []; ints [| 100; 150 |]; ints [| 50 |]; junk () |] in
              J.List (set_nth (List.init k (fun _ -> ladder ())) 0 (pick rng bad))
          | _ -> J.List (List.init (P.int rng (k + 2)) (fun _ -> ladder ())) )
  in
  J.Obj fields

let inline_line rng =
  let line = J.to_string (inline_json rng) in
  (* one in eight lines also gets a random byte-level fault *)
  if P.int rng 8 = 0 then mutate rng line else line

(* --- inputs: reshaped inline DAGs ------------------------------------ *)

(* [J.to_string] writes fields in one order, no whitespace, no duplicate
   key, no escape and only the ints it was given. A decoder that reads
   the bytes must not lean on any of that, so these lines take the same
   values and reshape them: fields permuted at every level, keys
   duplicated (the second value often invalid), unknown fields holding
   nested containers, boundary numbers, escaped strings and keys, and
   whitespace between tokens. Some pair a broken inline graph with a
   "release" command or a string "benchmark", which never read it. *)
type shape = Tok of string | Str of string | Arr of shape list | Obj of (string * shape) list

let rec shape_of = function
  | J.Null -> Tok "null"
  | J.Bool b -> Tok (string_of_bool b)
  | J.Int i -> Tok (string_of_int i)
  | J.Float _ as f -> Tok (J.to_string f)
  | J.String s -> Str s
  | J.List l -> Arr (List.map shape_of l)
  | J.Obj fields -> Obj (List.map (fun (k, v) -> (k, shape_of v)) fields)

let boundary =
  [|
    "123456789012345678"; "-123456789012345678"; "1234567890123456789";
    "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
    "-0"; "0"; "1.0"; "1e2"; "2E0"; "-1";
  |]

let junk_shape rng =
  pick rng
    [|
      Tok "null"; Tok "true"; Tok "1.5"; Str "x"; Arr []; Obj [];
      Arr [ Arr [ Tok "1" ]; Obj [ ("nodes", Arr [ Tok "2" ]) ] ];
    |]

let unknown rng =
  ( pick rng [| "note"; "meta"; "nodes"; "graph"; "time"; "x-extra" |],
    pick rng
      [|
        Arr [ Obj [ ("a", Arr [ Tok "1"; Str "b"; Arr [] ]) ]; Arr [ Arr [] ] ];
        Obj [ ("edges", Arr [ Arr [ Tok "0"; Tok "1" ] ]); ("k", Obj []) ];
        Str "{\"not\": [\"parsed\"]}"; Tok "-1e5";
      |] )

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = P.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* How often each reshaping strikes, drawn once per line: a rate of [r]
   is one chance in [r] per token or field, and [0] is never. Most lines
   keep every value valid, so the decoders must also agree on what a
   reshaped line encodes to. *)
type rates = { numbers : int; nests : int; duplicates : int; unknowns : int }

let draw_rates rng =
  let rate options = pick rng options in
  {
    numbers = rate [| 0; 0; 400; 60 |];
    nests = rate [| 0; 0; 0; 400 |];
    duplicates = rate [| 0; 40; 12; 4 |];
    unknowns = rate [| 0; 6; 2 |];
  }

let strikes rng rate = rate > 0 && P.int rng rate = 0

(* Ints (and ids) may become boundary numbers, and a token an array
   nested around the depth bound, inside whatever field holds it. *)
let rec reshape rng rt v =
  match v with
  | Tok t when strikes rng rt.numbers && t <> "null" && t <> "true" && t <> "false" ->
      Tok (pick rng boundary)
  | Tok _ when strikes rng rt.nests ->
      let rec nest d x = if d = 0 then x else nest (d - 1) (Arr [ x ]) in
      nest (J.max_depth - 6 + P.int rng 10) v
  | Tok _ | Str _ -> v
  | Arr items -> Arr (List.map (reshape rng rt) items)
  | Obj fields ->
      let fields =
        List.map
          (fun (k, v) ->
            match k with
            | "id" when strikes rng (rt.numbers / 20) -> (k, Tok (pick rng boundary))
            | _ -> (k, reshape rng rt v))
          fields
      in
      let fields = shuffle rng fields in
      let fields =
        if strikes rng rt.unknowns then
          let i = P.int rng (List.length fields + 1) in
          List.filteri (fun j _ -> j < i) fields
          @ (unknown rng :: List.filteri (fun j _ -> j >= i) fields)
        else fields
      in
      (* A duplicate: after the value, the same value, junk or another
         valid value; or junk first, so the valid value is the ignored
         one. *)
      let other = function
        | Str s -> Str (s ^ "_")
        | Tok t -> (
            match int_of_string_opt t with
            | Some i -> Tok (string_of_int (i + 1))
            | None -> junk_shape rng)
        | Arr _ | Obj _ -> junk_shape rng
      in
      Obj
        (List.concat_map
           (fun (k, v) ->
             if not (strikes rng rt.duplicates) then [ (k, v) ]
             else
               match P.int rng 4 with
               | 0 -> [ (k, v); (k, v) ]
               | 1 -> [ (k, v); (k, junk_shape rng) ]
               | 2 -> [ (k, v); (k, other v) ]
               | _ -> [ (k, junk_shape rng); (k, v) ])
           fields)

(* The first graph of a top-level object, broken. *)
let break_graph rng = function
  | Obj fields ->
      let broken =
        pick rng
          [|
            Obj [ ("nodes", Tok "5") ]; Str "graph";
            Obj [ ("nodes", Arr [ Obj [] ]); ("edges", Arr [ Arr [ Tok "0"; Tok "0" ] ]) ];
          |]
      in
      let rec swap = function
        | ("graph", _) :: rest -> ("graph", broken) :: rest
        | f :: rest -> f :: swap rest
        | [] -> [ ("graph", broken) ]
      in
      Obj (swap fields)
  | v -> v

let render rng v =
  let b = Buffer.create 4096 in
  let ws () =
    if P.int rng 5 = 0 then
      Buffer.add_string b (pick rng [| " "; "\n"; "\t"; "\r\n"; "  " |])
  in
  let str s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '/' when P.int rng 2 = 0 -> Buffer.add_string b "\\/"
        | c when Char.code c < 0x20 || (Char.code c < 0x80 && P.int rng 6 = 0) ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  let rec go v =
    ws ();
    (match v with
    | Tok t -> Buffer.add_string b t
    | Str s -> str s
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then begin
              ws ();
              Buffer.add_char b ','
            end;
            go x)
          items;
        ws ();
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then begin
              ws ();
              Buffer.add_char b ','
            end;
            ws ();
            str k;
            ws ();
            Buffer.add_char b ':';
            go x)
          fields;
        ws ();
        Buffer.add_char b '}');
    ws ()
  in
  go v;
  Buffer.contents b

let reshaped_line rng =
  let v = shape_of (inline_json ~faults:(P.int rng 2 = 0) rng) in
  let v =
    match (P.int rng 8, v) with
    | 0, Obj fields -> break_graph rng (Obj (("cmd", Str "release") :: fields))
    | 1, Obj fields ->
        break_graph rng (Obj (fields @ [ ("benchmark", Str (pick rng [| "diffeq"; "elliptic" |])) ]))
    | _ -> v
  in
  render rng (reshape rng (draw_rates rng) v)

(* --- properties ------------------------------------------------------ *)

let batch_prop ~domains name ~count ~size gen =
  Alcotest.test_case
    (Printf.sprintf "%s, %d domain%s" name domains (if domains = 1 then "" else "s"))
    `Quick
    (fun () ->
      Par.Pool.with_pool ~domains @@ fun pool ->
      QCheck.Test.check_exn
        ~rand:(Random.State.make [| 18; domains |])
        (QCheck.Test.make ~name ~count
           (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int))
           (fun seed ->
             let rng = P.create seed in
             check_batch pool (Array.init size (fun _ -> gen rng)))))

(* --- fixed cases ----------------------------------------------------- *)

let test_mismatched_rows () =
  let line rows =
    Printf.sprintf
      {|{"graph":{"nodes":[{"name":"a"},{"name":"b"}],"edges":[[0,1]]},"table":{"types":["P"],"time":%s,"cost":%s},"deadline_factor":1.2}|}
      rows rows
  in
  (match Serve.Jsonl.line_of_string ~line:1 (line "[[1]]") with
  | Error e ->
      Alcotest.(check string) "rows vs nodes" "table has 1 rows but graph has 2 nodes" e
  | Ok _ -> Alcotest.fail "a one-row table for two nodes decoded");
  match Serve.Jsonl.line_of_string ~line:1 (line "[[1],[2]]") with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "matching counts rejected: %s" e

let () =
  let props domains =
    [
      batch_prop ~domains "arbitrary bytes" ~count:300 ~size:16 random_text;
      batch_prop ~domains "mutated smoke lines" ~count:200 ~size:16 mutated_line;
      batch_prop ~domains "inline DAGs" ~count:100 ~size:8 inline_line;
    ]
  in
  let reshaped domains =
    batch_prop ~domains "reshaped inline DAGs" ~count:100 ~size:8 reshaped_line
  in
  Alcotest.run "decode"
    [
      ("oracle differentials", props 1 @ props 2 @ [ reshaped 1; reshaped 2 ]);
      ( "fixed cases",
        [
          Alcotest.test_case "table rows must match graph nodes" `Quick
            test_mismatched_rows;
        ] );
    ]
