(* Request streams for the four workloads. Every line is a pure function
   of (workload, seed, position), so a run can be replayed in-process and
   checked against references without storing what was sent. *)

type workload = Hot_paper | Cold_paper | Inline_dag | Full_flow

let all = [ Hot_paper; Cold_paper; Inline_dag; Full_flow ]

let name = function
  | Hot_paper -> "hot-paper"
  | Cold_paper -> "cold-paper"
  | Inline_dag -> "inline-dag"
  | Full_flow -> "full-flow"

let of_name s = List.find_opt (fun w -> name w = s) all

(* [key] is the line without its id: equal keys are equal requests. *)
type item = { id : int; key : string; line : string }

let item ~id key = { id; key; line = Printf.sprintf {|{"id":%d,%s}|} id key }

(* The daemon's own lookup, copied because bin/ is not a library: every
   call rebuilds the extended suite and a seeded table. *)
let lookup name ~seed =
  Option.map
    (fun g ->
      ( g,
        Workloads.Tables.for_graph
          (Workloads.Prng.create seed)
          ~library:Fulib.Library.standard3 g ))
    (List.assoc_opt name (Workloads.Filters.extended ()))

let paper = Array.of_list (List.map fst (Workloads.Filters.all ()))
let extended = Array.of_list (List.map fst (Workloads.Filters.extended ()))

(* Per-position table seeds: warm positions are negative, timed ones
   non-negative, and each run seed owns a disjoint range. *)
let table_seed ~seed i = (seed * 100_000_000) + i
let rng ~seed i = Workloads.Prng.create (table_seed ~seed i)

let hot_keys =
  Array.of_list
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun factor ->
             List.map
               (fun algo ->
                 Printf.sprintf
                   {|"benchmark":"%s","deadline_factor":%s,"algorithm":"%s"|}
                   bench factor algo)
               [ "repeat"; "greedy" ])
           [ "1.2"; "1.5" ])
       (Array.to_list paper))

let cold_algorithms = [| "repeat"; "once"; "greedy" |]

(* Sizes cycle with the position, so every seed sends the same mix of
   60..140-node DAGs and only their shapes and tables differ. *)
let inline_body r i =
  let n = 60 + (20 * (((i mod 5) + 5) mod 5)) in
  let g = Workloads.Random_dfg.random_dag r ~n ~extra_edges:(n / 3) in
  let lib = Fulib.Library.standard3 in
  let t = Workloads.Tables.random_tradeoff r ~library:lib ~num_nodes:n in
  let b = Buffer.create 8192 in
  let add = Buffer.add_string b in
  add {|"graph":{"nodes":[|};
  for v = 0 to n - 1 do
    if v > 0 then add ",";
    add
      (Printf.sprintf {|{"name":"%s","op":"%s"}|} (Dfg.Graph.name g v)
         (Dfg.Graph.op g v))
  done;
  add {|],"edges":[|};
  List.iteri
    (fun i (e : Dfg.Graph.edge) ->
      if i > 0 then add ",";
      add (Printf.sprintf "[%d,%d,%d]" e.src e.dst e.delay))
    (Dfg.Graph.edges g);
  add {|]},"table":{"types":[|};
  let k = Fulib.Library.num_types lib in
  for f = 0 to k - 1 do
    if f > 0 then add ",";
    add (Printf.sprintf {|"%s"|} (Fulib.Library.type_name lib f))
  done;
  let matrix name cell =
    add (Printf.sprintf {|],"%s":[|} name);
    for v = 0 to n - 1 do
      if v > 0 then add ",";
      add "[";
      for f = 0 to k - 1 do
        if f > 0 then add ",";
        add (string_of_int (cell t ~node:v ~ftype:f))
      done;
      add "]"
    done
  in
  matrix "time" Fulib.Table.time;
  matrix "cost" Fulib.Table.cost;
  add {|]},"deadline_factor":1.3,"algorithm":"repeat"|};
  Buffer.contents b

let key w ~seed i =
  let r = rng ~seed i in
  match w with
  | Hot_paper -> hot_keys.(Workloads.Prng.int r (Array.length hot_keys))
  | Cold_paper ->
      Printf.sprintf
        {|"benchmark":"%s","seed":%d,"deadline_factor":%.1f,"algorithm":"%s"|}
        extended.(Workloads.Prng.int r (Array.length extended))
        (table_seed ~seed i)
        (1.0 +. (0.1 *. float_of_int (Workloads.Prng.int r 11)))
        cold_algorithms.(((i mod 3) + 3) mod 3)
  | Inline_dag -> inline_body r i
  | Full_flow ->
      Printf.sprintf
        {|"benchmark":"%s","seed":%d,"deadline_factor":%.1f,"algorithm":"repeat","validate":true,"rtl":true,"levels":3|}
        paper.(Workloads.Prng.int r (Array.length paper))
        (table_seed ~seed i)
        (1.2 +. (0.1 *. float_of_int (Workloads.Prng.int r 5)))

(* Timed position [i >= 0]; its id is the position. *)
let timed w ~seed i = item ~id:i (key w ~seed i)

(* The set sent right after each spawn: the whole hot set for hot-paper,
   eight requests outside the timed stream for the others. Warm ids are
   negative so they never collide with timed ids. *)
let warm w ~seed =
  match w with
  | Hot_paper ->
      List.init (Array.length hot_keys) (fun k ->
          item ~id:(-(k + 1)) hot_keys.(k))
  | Cold_paper | Inline_dag | Full_flow ->
      List.init 8 (fun k -> item ~id:(-(k + 1)) (key w ~seed (-(k + 1))))
