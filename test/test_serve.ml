(* The batch synthesis service: content-addressed cache (digest canonical
   in edge order, byte-identical replay, LRU), a session's bounded waves
   (order, isolation, pool parity), the JSONL wire format and the request
   loop over a file. *)

let lib3 = Fulib.Library.standard3

let table_for ~seed g =
  let rng = Workloads.Prng.create seed in
  Workloads.Tables.for_graph rng ~library:lib3 g

let instance ~seed =
  let rng = Workloads.Prng.create seed in
  let g = Workloads.Random_dfg.random_dag rng ~n:14 ~extra_edges:4 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:14 in
  (g, tbl)

let request ?scheduler ?validate ?budget_ms ?(algorithm = Core.Synthesis.Repeat)
    ?(slack = 3) (g, tbl) =
  let tmin = Core.Synthesis.min_deadline g tbl in
  Core.Synthesis.request ?scheduler ?validate ?budget_ms ~algorithm
    ~deadline:(tmin + slack) g tbl

let counter name =
  Option.value (Obs.Counter.value_of name) ~default:0

(* --- digest ------------------------------------------------------------ *)

let test_digest_deterministic () =
  let req = request (instance ~seed:3) in
  Alcotest.(check string)
    "same request, same digest" (Serve.Cache.digest req)
    (Serve.Cache.digest req);
  let g, tbl = instance ~seed:4 in
  Alcotest.(check bool)
    "different instance, different digest" false
    (Serve.Cache.digest req = Serve.Cache.digest (request (g, tbl)))

let test_digest_sensitivity () =
  let g, tbl = instance ~seed:5 in
  let base = request (g, tbl) in
  let d = Serve.Cache.digest base in
  let differs label req =
    Alcotest.(check bool) label false (Serve.Cache.digest req = d)
  in
  differs "deadline" (request ~slack:4 (g, tbl));
  differs "algorithm" (request ~algorithm:Core.Synthesis.Greedy (g, tbl));
  differs "scheduler" (request ~scheduler:Core.Synthesis.Force_directed (g, tbl));
  differs "validate" (request ~validate:true (g, tbl));
  differs "budget" (request ~budget_ms:1000 (g, tbl))

(* Satellite 3 regression: two builders assembling the same graph with
   edges inserted in opposite orders are the same instance and must land
   on the same cache entry. *)
let diamond_edges =
  [
    { Dfg.Graph.src = 0; dst = 2; delay = 0; size = 0 };
    { Dfg.Graph.src = 1; dst = 2; delay = 0; size = 0 };
    { Dfg.Graph.src = 2; dst = 3; delay = 0; size = 0 };
    { Dfg.Graph.src = 2; dst = 4; delay = 0; size = 0 };
  ]

let diamond edges =
  Dfg.Graph.of_edges
    ~names:[| "v1"; "v2"; "v3"; "v4"; "v5" |]
    ~ops:[| "mul"; "mul"; "add"; "add"; "sub" |]
    edges

let test_digest_edge_order_canonical () =
  let g_fwd = diamond diamond_edges in
  let g_rev = diamond (List.rev diamond_edges) in
  let tbl = table_for ~seed:12 g_fwd in
  let req g = Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline:10 g tbl in
  Alcotest.(check string)
    "edge insertion order canonicalized"
    (Serve.Cache.digest (req g_fwd))
    (Serve.Cache.digest (req g_rev));
  (* sanity: the two builds really are the same instance to the solvers *)
  Alcotest.(check bool)
    "fresh solves agree" true
    (Core.Synthesis.solve (req g_fwd) = Core.Synthesis.solve (req g_rev));
  let cache = Serve.Cache.create ~entries:8 () in
  let hits0 = counter "serve.cache.hit" in
  ignore (Serve.Cache.solve cache (req g_fwd));
  let resp = Serve.Cache.solve cache (req g_rev) in
  Alcotest.(check int) "second build hits" (hits0 + 1) (counter "serve.cache.hit");
  Alcotest.(check bool)
    "cached response equals fresh" true
    (resp = Core.Synthesis.solve (req g_fwd))

(* A random instance with delays and data sizes, as plain arrays so a test
   can rebuild it with one edge order or one table cell changed. *)
let raw_instance ~seed =
  let rng = Workloads.Prng.create seed in
  let n = 4 + Workloads.Prng.int rng 20 in
  let g =
    Workloads.Random_dfg.with_sizes rng ~min_size:0 ~max_size:200
      (Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 2))
  in
  let edges =
    List.map
      (fun (e : Dfg.Graph.edge) ->
        if Workloads.Prng.int rng 4 = 0 then
          { e with delay = 1 + Workloads.Prng.int rng 3 }
        else e)
      (Dfg.Graph.edges g)
  in
  let names = Array.init n (Dfg.Graph.name g) in
  let ops = Array.init n (Dfg.Graph.op g) in
  let cell lo hi = Array.init n (fun _ -> Array.init 3 (fun _ -> Workloads.Prng.int_in rng lo hi)) in
  (rng, names, ops, edges, cell 1 300, cell 0 5000)

let build (names, ops, edges, time, cost) =
  let g = Dfg.Graph.of_edges ~names ~ops edges in
  let tbl = Fulib.Table.make ~library:lib3 ~time ~cost in
  Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline:100 g tbl

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let qcheck_digest_edge_order =
  QCheck.Test.make ~count:100 ~name:"digest ignores edge insertion order"
    (QCheck.int_bound 100_000)
    (fun seed ->
      let rng, names, ops, edges, time, cost = raw_instance ~seed in
      Serve.Cache.digest (build (names, ops, edges, time, cost))
      = Serve.Cache.digest (build (names, ops, shuffle rng edges, time, cost)))

(* One changed table cell, edge delay or edge size always changes the
   digest, whatever the magnitudes on either side of the varint byte
   boundaries. *)
let qcheck_digest_field_sensitivity =
  QCheck.Test.make ~count:150 ~name:"digest sees every cell, delay and size"
    (QCheck.int_bound 100_000)
    (fun seed ->
      let rng, names, ops, edges, time, cost = raw_instance ~seed in
      let base = Serve.Cache.digest (build (names, ops, edges, time, cost)) in
      let bump x = x + 1 + Workloads.Prng.int rng (if Workloads.Prng.int rng 2 = 0 then 3 else 100_000) in
      let with_cell m =
        let m = Array.map Array.copy m in
        let v = Workloads.Prng.int rng (Array.length m) and t = Workloads.Prng.int rng 3 in
        m.(v).(t) <- bump m.(v).(t);
        m
      in
      let with_edge f =
        let i = Workloads.Prng.int rng (List.length edges) in
        List.mapi (fun j e -> if i = j then f e else e) edges
      in
      let differs parts = Serve.Cache.digest (build parts) <> base in
      differs (names, ops, edges, with_cell time, cost)
      && differs (names, ops, edges, time, with_cell cost)
      && differs
           (names, ops, with_edge (fun e -> { e with Dfg.Graph.size = bump e.Dfg.Graph.size }), time, cost)
      && differs
           ( names, ops,
             with_edge (fun e -> { e with Dfg.Graph.delay = bump e.Dfg.Graph.delay }),
             time, cost ))

(* Knob values on both sides of each varint length boundary, negative
   budgets and every DVFS ladder shape encode to distinct digests. *)
let test_digest_knob_encodings () =
  let g, tbl = instance ~seed:40 in
  let req ?budget_ms ?levels deadline =
    Core.Synthesis.request ?budget_ms ?levels ~algorithm:Core.Synthesis.Repeat
      ~deadline g tbl
  in
  let reqs =
    List.map req [ 1; 63; 64; 127; 128; 8191; 8192; max_int ]
    @ List.map (fun b -> req ~budget_ms:b 64) [ -1; 0; 1; 63; 64; 100_000 ]
    @ List.map
        (fun levels -> req ~levels 64)
        [
          Fulib.Dvfs.uniform ~levels:1 ~types:3;
          Fulib.Dvfs.uniform ~levels:2 ~types:3;
          Fulib.Dvfs.uniform ~levels:3 ~types:3;
          Fulib.Dvfs.of_freqs [ [ 100; 75 ]; [ 100 ]; [ 100; 50 ] ];
          Fulib.Dvfs.of_freqs [ [ 100 ]; [ 100; 75 ]; [ 100; 50 ] ];
        ]
    (* ladders that differ only in an explicit time or energy scale *)
    @ List.map
        (fun slow ->
          let n = Fulib.Dvfs.nominal in
          req ~levels:[| [| n; slow |]; [| n |]; [| n |] |] 64)
        [
          Fulib.Dvfs.level 75;
          Fulib.Dvfs.level ~time_pct:150 75;
          Fulib.Dvfs.level ~energy_pct:10 75;
        ]
  in
  (* memory capacities, and under rtl node names and FU type names *)
  let renamed =
    Dfg.Graph.of_edges
      ~names:(Array.init (Dfg.Graph.num_nodes g) (fun v -> "n" ^ string_of_int v))
      ~ops:(Array.init (Dfg.Graph.num_nodes g) (Dfg.Graph.op g))
      (Dfg.Graph.edges g)
  in
  let retyped =
    Fulib.Table.make
      ~library:(Fulib.Library.make [| "Q1"; "Q2"; "Q3" |])
      ~time:
        (Array.init (Dfg.Graph.num_nodes g) (fun node ->
             Array.init 3 (fun ftype -> Fulib.Table.time tbl ~node ~ftype)))
      ~cost:
        (Array.init (Dfg.Graph.num_nodes g) (fun node ->
             Array.init 3 (fun ftype -> Fulib.Table.cost tbl ~node ~ftype)))
  in
  let on ?(rtl = false) g tbl =
    Core.Synthesis.request ~rtl ~algorithm:Core.Synthesis.Repeat ~deadline:64 g tbl
  in
  let reqs =
    reqs
    @ [
        on g (Fulib.Table.with_mem_capacity tbl [| 10; 10; 10 |]);
        on g (Fulib.Table.with_mem_capacity tbl [| 10; 11; 10 |]);
        on ~rtl:true g tbl;
        on ~rtl:true renamed tbl;
        on ~rtl:true g retyped;
      ]
  in
  let digests = List.map Serve.Cache.digest reqs in
  Alcotest.(check int) "all distinct" (List.length reqs)
    (List.length (List.sort_uniq compare digests));
  List.iter
    (fun d -> Alcotest.(check int) "md5 hex" 32 (String.length d))
    digests;
  Alcotest.(check string) "names and type names are cosmetic without rtl"
    (Serve.Cache.digest (on g tbl))
    (Serve.Cache.digest (on renamed retyped))

(* --- cache ------------------------------------------------------------- *)

let test_cached_response_byte_identical () =
  let req = request ~validate:true (instance ~seed:6) in
  let cache = Serve.Cache.create ~entries:4 () in
  let fresh = Serve.Cache.solve cache req in
  let cached = Serve.Cache.solve cache req in
  Alcotest.(check bool) "structurally identical" true (fresh = cached);
  Alcotest.(check string)
    "byte-identical on the wire"
    (Serve.Jsonl.response_to_string ~id:(Obs.Json.Int 1) fresh)
    (Serve.Jsonl.response_to_string ~id:(Obs.Json.Int 1) cached)

let test_cache_hit_miss_counters () =
  let cache = Serve.Cache.create ~entries:4 () in
  let req = request (instance ~seed:7) in
  let hits0 = counter "serve.cache.hit" and misses0 = counter "serve.cache.miss" in
  ignore (Serve.Cache.solve cache req);
  ignore (Serve.Cache.solve cache req);
  ignore (Serve.Cache.solve cache req);
  Alcotest.(check int) "one miss" (misses0 + 1) (counter "serve.cache.miss");
  Alcotest.(check int) "two hits" (hits0 + 2) (counter "serve.cache.hit");
  Alcotest.(check int) "one entry" 1 (Serve.Cache.length cache)

let test_cache_lru_eviction () =
  let cache = Serve.Cache.create ~entries:2 () in
  Alcotest.(check int) "capacity" 2 (Serve.Cache.capacity cache);
  let r1 = request (instance ~seed:8) in
  let r2 = request (instance ~seed:9) in
  let r3 = request (instance ~seed:10) in
  let evict0 = counter "serve.cache.evict" in
  ignore (Serve.Cache.solve cache r1);
  ignore (Serve.Cache.solve cache r2);
  ignore (Serve.Cache.solve cache r1) (* bump r1: r2 becomes the LRU *);
  ignore (Serve.Cache.solve cache r3);
  Alcotest.(check int) "one eviction" (evict0 + 1) (counter "serve.cache.evict");
  Alcotest.(check int) "still full" 2 (Serve.Cache.length cache);
  Alcotest.(check bool) "r1 survived (recently used)" true
    (Option.is_some (Serve.Cache.find_digest cache (Serve.Cache.digest r1)));
  Alcotest.(check bool) "r2 evicted" false
    (Option.is_some (Serve.Cache.find_digest cache (Serve.Cache.digest r2)))

let test_cache_skips_timeout () =
  let cache = Serve.Cache.create ~entries:4 () in
  let req = request ~budget_ms:0 (instance ~seed:11) in
  let resp = Serve.Cache.solve cache req in
  Alcotest.(check bool) "timed out" true
    (resp.Core.Synthesis.status = Core.Synthesis.Timeout);
  Alcotest.(check int) "not cached" 0 (Serve.Cache.length cache)

(* The library reads no serve setting from the environment: [hetsched]
   binds the variable to a flag, and an in-process cache keeps its
   constant defaults whatever the variable says. *)
let test_entries_ignore_env () =
  Helpers.with_env "HETSCHED_CACHE_ENTRIES" "7" @@ fun () ->
  Alcotest.(check int) "default capacity" Serve.Cache.default_entries
    (Serve.Cache.capacity (Serve.Cache.create ()))

(* The capacity contract: a cache of capacity N holds exactly N responses
   once N distinct digests are stored, evicts nothing before the
   (N+1)-th, never holds more than N, and with no hits in between evicts
   in store order. *)
let test_cache_exact_capacity () =
  let inst = instance ~seed:12 in
  let resp = Core.Synthesis.solve (request ~slack:0 inst) in
  List.iter
    (fun n ->
      let keys =
        Array.init (2 * n) (fun i ->
            Serve.Cache.digest (request ~slack:i inst))
      in
      let cache = Serve.Cache.create ~entries:n () in
      let evict0 = counter "serve.cache.evict" in
      Array.iteri
        (fun i key ->
          Serve.Cache.store_digest cache key resp;
          let stored = i + 1 in
          let label what =
            Printf.sprintf "N = %d, store %d: %s" n stored what
          in
          Alcotest.(check int) (label "resident") (min stored n)
            (Serve.Cache.length cache);
          Alcotest.(check int) (label "evicted")
            (max 0 (stored - n))
            (counter "serve.cache.evict" - evict0))
        keys;
      Array.iteri
        (fun i key ->
          Alcotest.(check bool)
            (Printf.sprintf "N = %d: store %d resident" n (i + 1))
            (i >= n)
            (Option.is_some (Serve.Cache.find_digest cache key)))
        keys)
    [ 8; 100; 512 ]

(* Exact LRU against a list model: random stores and probes over a few
   keys, at small capacities, must agree on every probe's answer, on the
   length and on the evictions counted. The model lists keys most recent
   first: a hit moves its key to the front, and a store of a new key puts
   it there after dropping the last key when the list is full. *)
let qcheck_cache_matches_lru_model =
  let resp = lazy (Core.Synthesis.solve (request (instance ~seed:13))) in
  QCheck.Test.make ~count:200 ~name:"cache == list LRU model"
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(0 -- 40) (pair bool (int_bound 6))))
    (fun (capacity, ops) ->
      let cache = Serve.Cache.create ~entries:capacity () in
      let key k = Printf.sprintf "key-%d" k in
      let evict0 = counter "serve.cache.evict" in
      let model = ref [] and evicted = ref 0 in
      List.for_all
        (fun (store, k) ->
          let agrees =
            if store then begin
              Serve.Cache.store_digest cache (key k) (Lazy.force resp);
              if not (List.mem k !model) then begin
                if List.length !model = capacity then begin
                  model := List.filteri (fun i _ -> i < capacity - 1) !model;
                  incr evicted
                end;
                model := k :: !model
              end;
              true
            end
            else
              let hit =
                Option.is_some (Serve.Cache.find_digest cache (key k))
              in
              let resident = List.mem k !model in
              if resident then model := k :: List.filter (( <> ) k) !model;
              hit = resident
          in
          agrees
          && Serve.Cache.length cache = List.length !model
          && counter "serve.cache.evict" - evict0 = !evicted)
        ops)

(* Concurrent hammer: 4 domains solving overlapping digests through one
   cache must lose no stores, and the counters must account for every
   lookup. *)
let test_cache_concurrent_hammer () =
  let cache = Serve.Cache.create ~entries:256 () in
  let reqs = Array.init 8 (fun i -> request (instance ~seed:(300 + i))) in
  let expected = Array.map Core.Synthesis.solve reqs in
  let rounds = 6 in
  let h0 = counter "serve.cache.hit" and m0 = counter "serve.cache.miss" in
  Par.Pool.with_pool ~domains:4 (fun pool ->
      (* every task sweeps the whole request set, so every digest is
         hammered from every domain; results must match the fresh solves *)
      let results =
        Par.Pool.map_array pool
          (fun offset ->
            Array.init (Array.length reqs) (fun i ->
                let r = reqs.((i + offset) mod Array.length reqs) in
                Serve.Cache.solve cache r))
          (Array.init (4 * rounds) (fun i -> i))
      in
      Array.iteri
        (fun t task_results ->
          Array.iteri
            (fun i resp ->
              let want = expected.((i + t) mod Array.length reqs) in
              if resp <> want then
                Alcotest.failf "task %d lookup %d returned a wrong response" t i)
            task_results)
        results);
  (* no lost stores: every distinct request is resident afterwards *)
  Alcotest.(check int) "all entries resident" (Array.length reqs)
    (Serve.Cache.length cache);
  Array.iter
    (fun r ->
      Alcotest.(check bool) "entry findable" true
        (Option.is_some (Serve.Cache.find_digest cache (Serve.Cache.digest r))))
    reqs;
  (* every lookup was either a hit or a miss (the re-find sweep above
     adds one lookup per request) *)
  let hits = counter "serve.cache.hit" - h0
  and misses = counter "serve.cache.miss" - m0 in
  Alcotest.(check int) "hits + misses == lookups"
    ((4 * rounds * Array.length reqs) + Array.length reqs)
    (hits + misses)

(* --- server ------------------------------------------------------------ *)

(* A session's waves, driven through the request loop [Daemon.serve].
   Job lines name the seeded lookup's instance, so every answer can be
   checked against a plain [Core.Synthesis.solve] of the same request. *)
let seeded_lookup _name ~seed = Some (instance ~seed)

(* One session over [lines], read from a file: everything it answers,
   one line each, and the count [serve] returned. *)
let session_output_count ?admission daemon lines =
  let in_path = Filename.temp_file "serve_lines" ".in" in
  Out_channel.with_open_text in_path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let out = Buffer.create 1024 in
  let fd = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let n =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Serve.Daemon.serve ?admission daemon ~input:fd ~emit:(fun line ->
            Buffer.add_string out line;
            Buffer.add_char out '\n'))
  in
  Sys.remove in_path;
  (Buffer.contents out, n)

let session_output ?admission daemon lines =
  fst (session_output_count ?admission daemon lines)

let output_lines text = String.split_on_char '\n' (String.trim text)

(* A job line for instance [seed] and the request it decodes to: the
   default deadline is the minimum plus 3, as [request] builds it. *)
let job ?budget_ms ?deadline seed =
  let g, tbl = instance ~seed in
  let deadline =
    Option.value deadline ~default:(Core.Synthesis.min_deadline g tbl + 3)
  in
  let budget =
    Option.fold budget_ms ~none:"" ~some:(Printf.sprintf {|, "budget_ms": %d|})
  in
  ( Printf.sprintf {|{"benchmark": "rand", "seed": %d, "deadline": %d%s}|}
      seed deadline budget,
    Core.Synthesis.request ?budget_ms ~algorithm:Core.Synthesis.Repeat
      ~deadline g tbl )

(* The answer lines of one session over [jobs]. *)
let session_answers ~domains ?cache ?queue_capacity jobs =
  Par.Pool.with_pool ~domains @@ fun pool ->
  let daemon =
    Serve.Daemon.create ~lookup:seeded_lookup ~pool ?cache ?queue_capacity ()
  in
  output_lines (session_output daemon (List.map fst jobs))

(* The same lines from sequential solves, ids being line numbers. *)
let sequential_answers jobs =
  List.mapi
    (fun i (_, req) ->
      Serve.Jsonl.response_to_string ~id:(Obs.Json.Int (i + 1))
        (Core.Synthesis.solve req))
    jobs

let status_of line =
  Option.bind
    (Obs.Json.member "status" (Helpers.json line))
    Obs.Json.to_string_opt

let test_queue_bounds_and_order () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (match Serve.Daemon.create ~queue_capacity:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let jobs = [ job 12; job 13; job 12 ] in
  let drains0 = counter "serve.drains" in
  let requests0 = counter "serve.requests" in
  let answers = session_answers ~domains:1 ~queue_capacity:2 jobs in
  (* two non-empty waves for three jobs: neither held more than two *)
  Alcotest.(check int) "two waves" 2 (counter "serve.drains" - drains0);
  Alcotest.(check int) "every job queued" 3
    (counter "serve.requests" - requests0);
  Alcotest.(check (list string))
    "submission order" (sequential_answers jobs) answers

let test_solve_batch_waves () =
  let jobs = List.init 8 (fun i -> job (20 + i)) in
  let drains0 = counter "serve.drains" in
  let answers = session_answers ~domains:2 ~queue_capacity:3 jobs in
  Alcotest.(check int) "waves of 3, 3 and 2" 3
    (counter "serve.drains" - drains0);
  Alcotest.(check (list string))
    "matches sequential" (sequential_answers jobs) answers

let test_poisoned_request_isolated () =
  (* deadline 1 and a zero budget among ordinary jobs: the wave must come
     back ok / timeout / infeasible / ok with no exception escaping the
     pool *)
  let statuses =
    List.map status_of
      (session_answers ~domains:2
         [ job 30; job ~budget_ms:0 31; job ~deadline:1 32; job 33 ])
  in
  Alcotest.(check (list (option string)))
    "ok / timeout / infeasible / ok"
    [ Some "ok"; Some "timeout"; Some "infeasible"; Some "ok" ]
    statuses

(* --- qcheck differentials ---------------------------------------------- *)

let qcheck_server_matches_sequential =
  QCheck.Test.make ~count:15 ~name:"server batch == sequential solves"
    QCheck.(pair (int_bound 1000) (int_bound 6))
    (fun (seed, extra) ->
      let jobs = List.init (2 + extra) (fun i -> job (seed + (17 * i))) in
      session_answers ~domains:2 ~queue_capacity:4 jobs
      = sequential_answers jobs)

(* A hit must answer with a fresh solve's bytes: both sessions are
   checked against sequential solves, not only against each other. *)
let qcheck_cache_parity =
  QCheck.Test.make ~count:15 ~name:"cache on/off parity (with duplicates)"
    (QCheck.int_bound 1000)
    (fun seed ->
      let base = List.init 3 (fun i -> job (seed + i)) in
      let jobs = base @ base @ List.rev base in
      let answers entries =
        session_answers ~domains:1
          ~cache:(Serve.Cache.create ~entries ()) jobs
      in
      let expected = sequential_answers jobs in
      answers 64 = expected && answers 1 = expected)

let qcheck_domain_parity =
  QCheck.Test.make ~count:10 ~name:"domains 1 vs 4 parity"
    (QCheck.int_bound 1000)
    (fun seed ->
      let jobs = List.init 6 (fun i -> job (seed + (7 * i))) in
      session_answers ~domains:1 jobs = session_answers ~domains:4 jobs)

let qcheck_timeout_neighbours_survive =
  QCheck.Test.make ~count:10 ~name:"zero-budget request times out alone"
    (QCheck.int_bound 1000)
    (fun seed ->
      List.map status_of
        (session_answers ~domains:2
           [ job seed; job ~budget_ms:0 (seed + 1); job (seed + 2) ])
      = [ Some "ok"; Some "timeout"; Some "ok" ])

(* --- jsonl ------------------------------------------------------------- *)

let inline_request_line =
  {|{"id": "inline-1", "graph": {"nodes": [{"name": "a", "op": "mul"}, {"name": "b", "op": "add"}], "edges": [[0, 1]]}, "table": {"types": ["P1", "P2"], "time": [[1, 2], [1, 3]], "cost": [[9, 4], [8, 3]]}, "deadline": 6, "algorithm": "repeat", "validate": true}|}

let test_jsonl_inline_round_trip () =
  match Helpers.solve_line ~line:1 inline_request_line with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok item ->
      Alcotest.(check bool) "id echoed" true
        (item.Serve.Jsonl.id = Obs.Json.String "inline-1");
      let req = item.Serve.Jsonl.request in
      Alcotest.(check int) "deadline" 6 req.Core.Synthesis.deadline;
      Alcotest.(check bool) "validate" true req.Core.Synthesis.validate;
      Alcotest.(check int) "nodes" 2
        (Dfg.Graph.num_nodes req.Core.Synthesis.graph);
      let resp = Core.Synthesis.solve req in
      let line = Serve.Jsonl.response_to_string ~id:item.Serve.Jsonl.id resp in
      let json = Helpers.json line in
      Alcotest.(check (option string))
        "status ok" (Some "ok")
        (Option.bind (Obs.Json.member "status" json) Obs.Json.to_string_opt);
      Alcotest.(check (option string))
        "id round-trips" (Some "inline-1")
        (Option.bind (Obs.Json.member "id" json) Obs.Json.to_string_opt)

(* the rtl knob: parsed, digest-separated, and rendered as an "rtl"
   response object with artifact digests and interconnect stats *)
let test_jsonl_rtl_block () =
  let line_of rtl =
    Printf.sprintf
      {|{"id": "rtl-1", "graph": {"nodes": [{"name": "a", "op": "mul"}, {"name": "b", "op": "add"}], "edges": [[0, 1]]}, "table": {"types": ["P1", "P2"], "time": [[4, 8], [4, 8]], "cost": [[9, 4], [8, 3]]}, "deadline": 16%s}|}
      (if rtl then {|, "rtl": true|} else "")
  in
  let parse l =
    match Helpers.solve_line ~line:1 l with
    | Ok item -> item
    | Error msg -> Alcotest.failf "parse failed: %s" msg
  in
  let lowered = parse (line_of true) and plain = parse (line_of false) in
  Alcotest.(check bool) "rtl knob parsed" true
    lowered.Serve.Jsonl.request.Core.Synthesis.rtl;
  Alcotest.(check bool) "knob separates cache digests" false
    (Serve.Cache.digest lowered.Serve.Jsonl.request
    = Serve.Cache.digest plain.Serve.Jsonl.request);
  let render item =
    Helpers.json
      (Serve.Jsonl.response_to_string ~id:item.Serve.Jsonl.id
         (Core.Synthesis.solve item.Serve.Jsonl.request))
  in
  Alcotest.(check bool) "plain response has no rtl block" true
    (Obs.Json.member "rtl" (render plain) = None);
  match Obs.Json.member "rtl" (render lowered) with
  | None -> Alcotest.fail "lowered response has no rtl block"
  | Some rtl ->
      (match Obs.Json.member "module_digest" rtl with
      | Some (Obs.Json.String d) ->
          Alcotest.(check int) "md5 hex digest" 32 (String.length d)
      | _ -> Alcotest.fail "rtl block has no module_digest");
      (match
         ( Obs.Json.member "fu_instances" rtl,
           Obs.Json.member "registers" rtl )
       with
      | Some (Obs.Json.Int f), Some (Obs.Json.Int r) ->
          Alcotest.(check bool) "stats populated" true (f >= 1 && r >= 0)
      | _ -> Alcotest.fail "rtl block lacks interconnect stats");
      (* mul and add are both mappable: no unsupported entries *)
      (match Obs.Json.member "unsupported" rtl with
      | Some (Obs.Json.List []) -> ()
      | _ -> Alcotest.fail "expected an empty unsupported list")

(* Regression: under "rtl": true the node ops decide the module text and
   the unsupported list, so two requests that differ only in ops must not
   share a cache entry; without the knob they still do. The 1-domain pool
   solves the wave in order, so the second request meets the first one's
   entry in the cache. *)
let test_rtl_digest_covers_ops () =
  let request ~ops:(op0, op1) ~rtl =
    Printf.sprintf
      {|{"id": "ops", "graph": {"nodes": [{"name": "a", "op": %S}, {"name": "b", "op": %S}], "edges": [[0, 1]]}, "table": {"types": ["P1", "P2"], "time": [[4, 8], [4, 8]], "cost": [[9, 4], [8, 3]]}, "deadline": 16, "rtl": %b}|}
      op0 op1 rtl
  in
  let serve lines =
    Par.Pool.with_pool ~domains:1 (fun pool ->
        let cache = Serve.Cache.create ~entries:8 () in
        let out = session_output (Serve.Daemon.create ~pool ~cache ()) lines in
        (String.split_on_char '\n' (String.trim out), Serve.Cache.length cache))
  in
  let frob = request ~ops:("mul", "frob") ~rtl:true in
  let batch, entries = serve [ request ~ops:("add", "add") ~rtl:true; frob ] in
  let alone, _ = serve [ frob ] in
  Alcotest.(check int) "one entry each" 2 entries;
  Alcotest.(check string) "second answered as if served alone"
    (List.hd alone) (List.nth batch 1);
  let rtl_member name l =
    Option.bind (Obs.Json.member "rtl" (Helpers.json l))
      (Obs.Json.member name)
  in
  Alcotest.(check bool) "own module digest" false
    (rtl_member "module_digest" (List.nth batch 0)
    = rtl_member "module_digest" (List.nth batch 1));
  (match rtl_member "unsupported" (List.nth batch 1) with
  | Some (Obs.Json.List [ u ]) ->
      Alcotest.(check (option string))
        "unsupported-op entry" (Some "unsupported-op")
        (Option.bind (Obs.Json.member "code" u) Obs.Json.to_string_opt)
  | _ -> Alcotest.fail "expected one unsupported entry for frob");
  let _, plain_entries =
    serve
      [
        request ~ops:("add", "add") ~rtl:false;
        request ~ops:("mul", "frob") ~rtl:false;
      ]
  in
  Alcotest.(check int) "plain twins share one entry" 1 plain_entries

(* The JSONL parser against the canonical encoding: a random request with
   every knob drawn, rendered as an inline JSONL line and parsed back,
   encodes exactly as the original did. A field the parser dropped or
   misread would change the encoding. *)
let qcheck_jsonl_round_trips_encoding =
  QCheck.Test.make ~count:100 ~name:"jsonl line -> request keeps the encoding"
    (QCheck.int_bound 100_000)
    (fun seed ->
      let module J = Obs.Json in
      let rng, names, _, edges, time, cost = raw_instance ~seed in
      let pick a = a.(Workloads.Prng.int rng (Array.length a)) in
      let chance () = Workloads.Prng.int rng 2 = 0 in
      let ops = Array.map (fun _ -> pick [| "add"; "mul"; "sub"; "frob" |]) names in
      let types = [| "P1"; "P2"; "P3" |] in
      let mem_capacity =
        if chance () then None
        else Some (Array.init 3 (fun _ -> Workloads.Prng.int_in rng 0 500))
      in
      let library = Fulib.Library.make ?mem_capacity types in
      let g = Dfg.Graph.of_edges ~names ~ops edges in
      let table = Fulib.Table.make ~library ~time ~cost in
      let freqs =
        List.init 3 (fun _ ->
            100 :: List.filter (fun _ -> chance ()) [ 80; 60; 40; 20 ])
      in
      let req =
        Core.Synthesis.request
          ~scheduler:(pick Core.Synthesis.[| List_scheduling; Force_directed |])
          ~validate:(chance ()) ~rtl:(chance ())
          ?budget_ms:(if chance () then Some (Workloads.Prng.int rng 5000) else None)
          ?levels:(if chance () then Some (Fulib.Dvfs.of_freqs freqs) else None)
          ~algorithm:(pick (Array.of_list Assign.Solve.all))
          ~deadline:(1 + Workloads.Prng.int rng 400) g table
      in
      let ints a = J.List (Array.to_list (Array.map (fun v -> J.Int v) a)) in
      let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
      let line =
        J.to_string
          (J.Obj
             ([
                ( "graph",
                  J.Obj
                    [
                      ( "nodes",
                        J.List
                          (Array.to_list
                             (Array.mapi
                                (fun v name ->
                                  J.Obj [ ("name", J.String name); ("op", J.String ops.(v)) ])
                                names)) );
                      ( "edges",
                        J.List
                          (List.map
                             (fun (e : Dfg.Graph.edge) ->
                               ints [| e.src; e.dst; e.delay; e.size |])
                             edges) );
                    ] );
                ( "table",
                  J.Obj
                    ([
                       ("types", J.List (Array.to_list (Array.map (fun s -> J.String s) types)));
                       ("time", J.List (Array.to_list (Array.map ints time)));
                       ("cost", J.List (Array.to_list (Array.map ints cost)));
                     ]
                    @ opt "mem_capacity" ints mem_capacity) );
                ("deadline", J.Int req.Core.Synthesis.deadline);
                ( "algorithm",
                  J.String (Core.Synthesis.algorithm_name req.Core.Synthesis.algorithm) );
                ( "scheduler",
                  J.String
                    (match req.Core.Synthesis.scheduler with
                    | Core.Synthesis.List_scheduling -> "list"
                    | Core.Synthesis.Force_directed -> "force") );
                ("validate", J.Bool req.Core.Synthesis.validate);
                ("rtl", J.Bool req.Core.Synthesis.rtl);
              ]
             @ opt "budget_ms" (fun ms -> J.Int ms) req.Core.Synthesis.budget_ms
             @ opt "levels"
                 (fun _ ->
                   J.List (List.map (fun l -> ints (Array.of_list l)) freqs))
                 req.Core.Synthesis.levels))
      in
      match Helpers.solve_line ~line:1 line with
      | Error msg -> QCheck.Test.fail_reportf "%s rejected: %s" line msg
      | Ok item ->
          Core.Synthesis.encode item.Serve.Jsonl.request = Core.Synthesis.encode req)

let test_jsonl_parse_errors () =
  let expect_error line s =
    match Helpers.solve_line ~line s with
    | Ok _ -> Alcotest.failf "expected an error for %s" s
    | Error _ -> ()
  in
  expect_error 1 "{not json";
  expect_error 2 {|{"deadline": 5}|};
  expect_error 3 {|{"benchmark": "diffeq", "deadline": 5}|} (* no lookup *);
  expect_error 4
    {|{"graph": {"nodes": [{"name": "a"}], "edges": []}, "table": {"types": ["P1"], "time": [[1]], "cost": [[1]]}}|}
    (* no deadline *)

let lookup = Workloads.Catalogue.lookup

(* How benchmark names resolved before the catalogue was resident: the
   whole suite rebuilt and a table drawn on every line. *)
let rebuilt_lookup name ~seed =
  Option.map
    (fun g -> (g, table_for ~seed g))
    (List.assoc_opt name (Workloads.Filters.extended ()))

(* deadline / deadline_factor / period are validated before dispatch: a
   bad value is a per-line error that names the offending field *)
let test_jsonl_field_validation () =
  let error_mentions field s =
    match Serve.Jsonl.line_of_string ~lookup ~line:1 s with
    | Ok _ -> Alcotest.failf "expected an error for %s" s
    | Error msg ->
        let contains hay needle =
          let nl = String.length needle and hl = String.length hay in
          let rec go i =
            i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
          in
          go 0
        in
        if not (contains msg field) then
          Alcotest.failf "error for %s does not name %S: %s" s field msg
  in
  error_mentions "deadline" {|{"benchmark": "diffeq", "deadline": 0}|};
  error_mentions "deadline" {|{"benchmark": "diffeq", "deadline": -4}|};
  error_mentions "deadline" {|{"benchmark": "diffeq", "deadline": 2.5}|};
  error_mentions "deadline" {|{"benchmark": "diffeq", "deadline": "soon"}|};
  error_mentions "deadline_factor"
    {|{"benchmark": "diffeq", "deadline_factor": 0}|};
  error_mentions "deadline_factor"
    {|{"benchmark": "diffeq", "deadline_factor": -1.5}|};
  error_mentions "deadline_factor"
    {|{"benchmark": "diffeq", "deadline_factor": "fast"}|};
  error_mentions "period"
    {|{"cmd": "admit", "benchmark": "diffeq", "deadline": 40}|};
  error_mentions "period"
    {|{"cmd": "admit", "benchmark": "diffeq", "deadline": 40, "period": 0}|};
  error_mentions "period"
    {|{"cmd": "admit", "benchmark": "diffeq", "deadline": 40, "period": 1.5}|};
  error_mentions "cmd" {|{"cmd": "evict", "task": "t1"}|};
  (* a release with no task key falls back to the line's id *)
  (match Serve.Jsonl.line_of_string ~lookup ~line:9 {|{"cmd": "release"}|} with
  | Ok (Serve.Jsonl.Release r) ->
      Alcotest.(check string) "task defaults to the line id" "9" r.task
  | Ok _ -> Alcotest.fail "bare release parsed as something else"
  | Error e -> Alcotest.failf "bare release rejected: %s" e);
  (* valid lines of each kind still parse *)
  (match
     Serve.Jsonl.line_of_string ~lookup ~line:1
       {|{"cmd": "admit", "benchmark": "diffeq", "deadline": 40, "period": 64, "task": "t1"}|}
   with
  | Ok (Serve.Jsonl.Admit a) ->
      Alcotest.(check string) "task key" "t1" a.task;
      Alcotest.(check int) "period" 64 a.periodic.Core.Synthesis.period
  | Ok _ -> Alcotest.fail "admit line parsed as something else"
  | Error e -> Alcotest.failf "admit line rejected: %s" e);
  match
    Serve.Jsonl.line_of_string ~lookup ~line:1 {|{"cmd": "release", "task": "t1"}|}
  with
  | Ok (Serve.Jsonl.Release r) -> Alcotest.(check string) "task key" "t1" r.task
  | Ok _ -> Alcotest.fail "release line parsed as something else"
  | Error e -> Alcotest.failf "release line rejected: %s" e

(* inline two-node chain: deterministic instance for admission lines *)
let inline_fields =
  {|"graph": {"nodes": [{"name": "a", "op": "mul"}, {"name": "b", "op": "add"}], "edges": [[0, 1]]}, "table": {"types": ["P1", "P2"], "time": [[4, 8], [4, 8]], "cost": [[9, 4], [8, 3]]}, "deadline": 16|}

let test_jsonl_serve_admission () =
  let lines =
    [
      (* light: 8+8 work over period 64 on the cheap units *)
      Printf.sprintf {|{"cmd": "admit", "id": "a1", "task": "t1", %s, "period": 64}|}
        inline_fields;
      (* plain solve rides along in the same batch *)
      Printf.sprintf {|{"id": "s1", %s}|} inline_fields;
      (* a serial chain cannot repeat every step: rejected with witness *)
      Printf.sprintf {|{"cmd": "admit", "id": "a2", "task": "t2", %s, "period": 1}|}
        inline_fields;
      {|{"cmd": "release", "id": "r1", "task": "t1"}|};
      {|{"cmd": "release", "id": "r2", "task": "t1"}|};
    ]
  in
  let out, served =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        session_output_count
          ~admission:(Rt.Admission.create ~capacity:(Rt.Admission.Uniform 2) ())
          (Serve.Daemon.create ~lookup ~pool ())
          lines)
  in
  Alcotest.(check int) "every line answered" 5 served;
  let out = output_lines out in
  let json_field name l =
    Option.bind (Obs.Json.member name (Helpers.json l)) Obs.Json.to_string_opt
  in
  Alcotest.(check (list (option string)))
    "statuses in line order"
    [ Some "admitted"; Some "ok"; Some "rejected"; Some "released"; Some "error" ]
    (List.map (json_field "status") out);
  Alcotest.(check (option string))
    "rejection reason is the stable code" (Some "period_overrun")
    (json_field "reason" (List.nth out 2));
  (* the witness carries the numbers the checker re-derives *)
  (match Obs.Json.member "witness" (Helpers.json (List.nth out 2)) with
  | Some w -> (
      match (Obs.Json.member "min_period" w, Obs.Json.member "period" w) with
      | Some (Obs.Json.Int mp), Some (Obs.Json.Int p) ->
          Alcotest.(check bool) "witness inequality holds" true (mp > p)
      | _ -> Alcotest.fail "witness missing min_period/period")
  | None -> Alcotest.fail "rejected line has no witness");
  (* the double release names the unknown task *)
  (match json_field "error" (List.nth out 4) with
  | Some msg ->
      Alcotest.(check bool) "unknown-task error names it" true
        (String.length msg > 0)
  | None -> Alcotest.fail "double release should be an error line")

(* The controller handed to [serve] is the one its admit/release
   lines use: it holds the admitted set afterwards, and a second run over
   the same controller releases a task the first one admitted. *)
let test_jsonl_serve_keeps_controller () =
  let adm = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 2) () in
  let serve lines =
    List.map
      (fun l ->
        Option.bind
          (Obs.Json.member "status" (Helpers.json l))
          Obs.Json.to_string_opt)
      (output_lines
         (session_output ~admission:adm (Serve.Daemon.create ~lookup ()) lines))
  in
  let admitted () =
    List.map (fun (e : Rt.Admission.admitted) -> e.id) (Rt.Admission.admitted adm)
  in
  Alcotest.(check (list (option string)))
    "first batch"
    [ Some "admitted"; Some "rejected" ]
    (serve
       [
         Printf.sprintf {|{"cmd": "admit", "task": "t1", %s, "period": 64}|}
           inline_fields;
         Printf.sprintf {|{"cmd": "admit", "task": "t2", %s, "period": 1}|}
           inline_fields;
       ]);
  Alcotest.(check (list string)) "controller holds t1" [ "t1" ] (admitted ());
  Alcotest.(check (list (option string)))
    "second batch" [ Some "released" ]
    (serve [ {|{"cmd": "release", "task": "t1"}|} ]);
  Alcotest.(check (list string)) "t1 released" [] (admitted ())

let test_jsonl_serve_channels () =
  let lines =
    [
      {|{"benchmark": "diffeq", "deadline_factor": 1.3}|};
      {|this is not json|};
      {|{"benchmark": "no-such-filter", "deadline": 9}|};
      "";
      {|{"id": 7, "benchmark": "volterra", "seed": 5, "deadline_factor": 1.2, "algorithm": "greedy"}|};
    ]
  in
  let out, served =
    Par.Pool.with_pool ~domains:2 (fun pool ->
        session_output_count (Serve.Daemon.create ~lookup ~pool ()) lines)
  in
  Alcotest.(check int) "blank line skipped, rest answered" 4 served;
  let out = output_lines out in
  let status l =
    Option.bind
      (Obs.Json.member "status" (Helpers.json l))
      Obs.Json.to_string_opt
  in
  Alcotest.(check (list (option string)))
    "statuses in line order"
    [ Some "ok"; Some "error"; Some "error"; Some "ok" ]
    (List.map status out);
  (* default ids are 1-based input line numbers; explicit ids echo *)
  let id l = Obs.Json.member "id" (Helpers.json l) in
  Alcotest.(check bool) "line-number id" true
    (id (List.nth out 0) = Some (Obs.Json.Int 1));
  Alcotest.(check bool) "explicit id" true
    (id (List.nth out 3) = Some (Obs.Json.Int 7))

let serve_lines ~lookup lines =
  Par.Pool.with_pool ~domains:2 (fun pool ->
      session_output (Serve.Daemon.create ~lookup ~pool ()) lines)

(* Serving from the resident catalogue answers every benchmark line byte
   for byte as rebuilding the suite per line did: every name, repeated
   and fresh seeds, each knob that reads the instance. *)
let test_catalogue_serves_identically () =
  let lines =
    List.concat_map
      (fun name ->
        List.map
          (fun extra -> Printf.sprintf {|{"benchmark": %S%s}|} name extra)
          [
            {|, "deadline_factor": 1.3|};
            {|, "seed": 5, "deadline_factor": 1.5, "algorithm": "greedy"|};
            {|, "seed": 5, "deadline_factor": 1.5, "algorithm": "greedy"|};
            {|, "seed": 9, "deadline_factor": 1.2, "validate": true, "rtl": true, "levels": 2|};
          ])
      (Workloads.Catalogue.names ())
  in
  let resident = serve_lines ~lookup lines in
  Alcotest.(check int) "one response per line" (List.length lines)
    (List.length (String.split_on_char '\n' (String.trim resident)));
  Alcotest.(check string) "byte-identical to per-line rebuilds"
    (serve_lines ~lookup:rebuilt_lookup lines)
    resident

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A factor whose deadline overflows an int is a per-line error naming
   deadline_factor, not an ok answer for another deadline: int_of_float of
   the product gives min_int there, which [max tmin] turns into the
   factor-1.0 deadline. In-range factors keep the deadline, and the bytes,
   they always had. *)
let test_deadline_factor_range () =
  let line ?(id = 1) f =
    Printf.sprintf {|{"id":%d,"benchmark":"diffeq","deadline_factor":%s}|} id f
  in
  let out = serve_lines ~lookup [ line "1e308"; line "4.6e18" ] in
  List.iter
    (fun resp ->
      if
        not
          (contains resp {|"status":"error"|}
          && contains resp "deadline_factor")
      then Alcotest.failf "out-of-range factor answered %s" resp)
    (String.split_on_char '\n' (String.trim out));
  let g, table =
    match lookup "diffeq" ~seed:42 with
    | Some inst -> inst
    | None -> Alcotest.fail "diffeq not in the catalogue"
  in
  let tmin = Core.Synthesis.min_deadline g table in
  List.iter
    (fun f ->
      match Helpers.solve_line ~lookup ~line:1 (line f) with
      | Error e -> Alcotest.failf "factor %s rejected: %s" f e
      | Ok item ->
          Alcotest.(check int)
            (Printf.sprintf "factor %s deadline" f)
            (max tmin (int_of_float (float_of_string f *. float_of_int tmin)))
            item.Serve.Jsonl.request.Core.Synthesis.deadline)
    [ "0.25"; "1"; "1.3"; "2.0"; "1e3"; "1e17" ];
  let deadline = max tmin (int_of_float (1.3 *. float_of_int tmin)) in
  Alcotest.(check string) "factor 1.3 answers as its deadline does"
    (serve_lines ~lookup
       [
         Printf.sprintf {|{"id":1,"benchmark":"diffeq","deadline":%d}|}
           deadline;
       ])
    (serve_lines ~lookup [ line "1.3" ])

(* "tree" runs on a forest in either orientation; anywhere else it is a
   plain per-line error naming the algorithm, not OCaml exception text. *)
let test_tree_needs_forest () =
  let inline edges =
    Printf.sprintf
      {|{"id":1,"graph":{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d"}],"edges":%s},"table":{"types":["P1","P2"],"time":[[1,2],[1,2],[1,2],[1,2]],"cost":[[5,1],[5,1],[5,1],[5,1]]},"deadline":6,"algorithm":"tree"}|}
      edges
  in
  let lines =
    [
      {|{"id":1,"benchmark":"diffeq","deadline_factor":1.3,"algorithm":"tree"}|};
      inline "[[0,1],[0,2],[1,3],[2,3]]";
      inline "[[0,1],[0,2],[1,3]]";
      inline "[[1,0],[2,0],[3,1]]";
      inline "[[0,1],[0,2],[1,3],[3,1,1]]";
    ]
  in
  match String.split_on_char '\n' (String.trim (serve_lines ~lookup lines)) with
  | [ diffeq; diamond; out_tree; in_tree; delayed ] ->
      List.iter
        (fun resp ->
          if
            not
              (contains resp {|"status":"error"|}
              && contains resp "tree (Tree_Assign)"
              && contains resp "forest"
              && not (contains resp "Invalid_argument"))
          then Alcotest.failf "non-forest under tree answered %s" resp)
        [ diffeq; diamond ];
      List.iter
        (fun resp ->
          if not (contains resp {|"status":"ok"|}) then
            Alcotest.failf "forest under tree answered %s" resp)
        [ out_tree; in_tree; delayed ]
  | _ -> Alcotest.fail "expected one response per line"

(* Costs past [Fulib.Table.max_cell] are a per-line table error naming
   the bound. Unbounded, three cells of 3*10^18 wrapped to a negative
   "ok" cost (validation included), and cells of [max_int] answered
   OCaml exception text. A time inside the bound that a DVFS ladder
   slows past it is a plain levels error. *)
let test_table_cell_bound () =
  let line ~time ~extra cost =
    let row = Printf.sprintf "[%d,%d]" cost cost in
    Printf.sprintf
      {|{"id":1,"graph":{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"}],"edges":[[0,1],[1,2]]},"table":{"types":["P1","P2"],"time":[[1,%d],[1,2],[1,2]],"cost":[%s,%s,%s]},"deadline":6,"validate":true%s}|}
      time row row row extra
  in
  let probes =
    [
      (line ~time:2 ~extra:"" 3_000_000_000_000_000_000, {|"error":"table: |});
      (line ~time:2 ~extra:"" max_int, {|"error":"table: |});
      ( line ~time:Fulib.Table.max_cell ~extra:{|,"levels":3|} 1,
        {|"error":"levels: |} );
    ]
  in
  let out = serve_lines ~lookup (List.map fst probes) in
  let answers = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "one response per line" (List.length probes)
    (List.length answers);
  List.iter2
    (fun (_, prefix) resp ->
      if
        not
          (contains resp prefix
          && contains resp (string_of_int Fulib.Table.max_cell))
        || List.exists (contains resp)
             [ "Invalid_argument"; "Failure"; "Not_found"; "exception" ]
      then Alcotest.failf "over-bound cell answered %s" resp)
    probes answers

(* A "trace" field is ignored like any unknown field: with tracing off,
   serving it records no span (the spans once piled up in a serving
   process that never writes them) and answers the bytes the line
   without it gets. *)
let test_trace_field_ignored () =
  let line extra =
    Printf.sprintf {|{"id":1,"benchmark":"diffeq","deadline_factor":1.2%s}|}
      extra
  in
  Obs.Env.set_trace (Some false);
  Obs.Span.clear ();
  Fun.protect ~finally:(fun () -> Obs.Env.set_trace None) @@ fun () ->
  let traced = serve_lines ~lookup [ line {|,"trace":true|} ] in
  Alcotest.(check int) "no span recorded" 0 (List.length (Obs.Span.roots ()));
  Alcotest.(check string) "bytes of the line without it"
    (serve_lines ~lookup [ line "" ])
    traced

(* --- stages ------------------------------------------------------------ *)

(* The request a solve line decodes to. *)
let decode_request line =
  match Serve.Jsonl.line_of_string ~lookup ~line:1 line with
  | Ok (Serve.Jsonl.Solve item) -> item.Serve.Jsonl.request
  | Ok _ -> Alcotest.failf "not a solve line: %s" line
  | Error msg -> Alcotest.failf "%s rejected: %s" line msg

(* The spans directly under the one root a traced solve records. *)
let stage_spans req =
  Obs.Env.set_trace (Some true);
  Obs.Span.clear ();
  Fun.protect ~finally:(fun () ->
      Obs.Env.set_trace None;
      Obs.Span.clear ())
  @@ fun () ->
  ignore (Core.Synthesis.solve req);
  match Obs.Span.roots () with
  | [ (_, root) ] ->
      Alcotest.(check string) "one root" "synthesis.solve" root.Obs.Span.name;
      root.Obs.Span.children
  | roots -> Alcotest.failf "%d root spans, expected one" (List.length roots)

let test_stage_spans () =
  let names spans = List.map (fun s -> s.Obs.Span.name) spans in
  let full =
    stage_spans
      (decode_request
         {|{"benchmark":"diffeq","deadline_factor":1.2,"levels":3,"rtl":true,"validate":true}|})
  in
  Alcotest.(check (list string))
    "every stage, in order"
    [
      "dvfs.expand";
      "assign";
      "sched.frames";
      "sched.schedule";
      "sched.reclaim";
      "rtl.lower";
      "check.validate";
    ]
    (names full);
  Alcotest.(check (list string))
    "the configuration is derived inside the schedule stage" [ "sched.config" ]
    (List.concat_map
       (fun s ->
         if s.Obs.Span.name = "sched.schedule" then names s.children else [])
       full);
  Alcotest.(check (list string))
    "a plain request skips the leveled and rtl stages"
    [ "assign"; "sched.frames"; "sched.schedule"; "check.validate" ]
    (names
       (stage_spans
          (decode_request {|{"benchmark":"diffeq","deadline_factor":1.2}|})))

(* A solve stops at its first failing check, in stage order: the budget
   before anything runs, then the DVFS ladder, then the algorithm's
   applicability. Node 0's slow cell is at the table's bound, so three
   levels slow it past; the graph is a diamond, not a forest. *)
let test_stage_early_exits () =
  let line extra =
    Printf.sprintf
      {|{"graph":{"nodes":[{"name":"a"},{"name":"b"},{"name":"c"},{"name":"d"}],"edges":[[0,1],[0,2],[1,3],[2,3]]},"table":{"types":["P1","P2"],"time":[[1,%d],[1,2],[1,2],[1,2]],"cost":[[5,1],[5,1],[5,1],[5,1]]},"deadline":6%s}|}
      Fulib.Table.max_cell extra
  in
  let solve extra = Core.Synthesis.solve (decode_request (line extra)) in
  Alcotest.(check bool) "the instance itself solves" true
    ((solve "").status = Core.Synthesis.Ok);
  let timeout = function Core.Synthesis.Timeout -> true | _ -> false in
  let error prefix = function
    | Core.Synthesis.Error msg -> contains msg prefix
    | _ -> false
  in
  List.iter
    (fun (extra, expected, ok) ->
      let resp = solve extra in
      if not (ok resp.Core.Synthesis.status) then
        Alcotest.failf "%s: expected %s, got %s" extra expected
          (Serve.Jsonl.response_to_string ~id:(Obs.Json.Int 1) resp);
      Alcotest.(check bool) (extra ^ ": no result") true (resp.result = None);
      Alcotest.(check int) (extra ^ ": no violations") 0
        (List.length resp.violations);
      Alcotest.(check (list (pair string int)))
        (extra ^ ": stats") [ ("nodes", 4) ] resp.stats)
    [
      ({|,"budget_ms":0,"levels":3,"algorithm":"tree"|}, "timeout", timeout);
      ({|,"budget_ms":0,"levels":3|}, "timeout", timeout);
      ({|,"budget_ms":0,"algorithm":"tree"|}, "timeout", timeout);
      ({|,"budget_ms":0|}, "timeout", timeout);
      ({|,"levels":3,"algorithm":"tree"|}, "levels error", error "levels: ");
      ({|,"levels":3|}, "levels error", error "levels: ");
      ({|,"algorithm":"tree"|}, "forest error", error "needs a forest");
    ];
  (* Exact's node budget runs out inside the assign stage: solve answers
     Timeout, and the phase-1 entry point lets the exception through *)
  let exact =
    decode_request
      {|{"benchmark":"elliptic","deadline_factor":1.2,"algorithm":"exact","budget_ms":1}|}
  in
  let resp = Core.Synthesis.solve exact in
  Alcotest.(check bool) "exhausted node budget times out" true
    (timeout resp.status && resp.result = None);
  Alcotest.check_raises "assign raises Budget_exhausted"
    Assign.Exact.Budget_exhausted (fun () ->
      ignore (Core.Synthesis.assign exact))

(* A budget only ever turns an answer into a timeout: at 1 and 2 domains,
   each budgeted response is the unbudgeted response's bytes, or Timeout
   with no result and the node count alone. Exact is left out: unbudgeted,
   it can search these 14-node instances for minutes. *)
let qcheck_budget_answers_or_times_out =
  QCheck.Test.make ~count:12 ~name:"budget answers as unbudgeted or times out"
    (QCheck.int_bound 100_000)
    (fun seed ->
      let rng = Workloads.Prng.create seed in
      let pick a = a.(Workloads.Prng.int rng (Array.length a)) in
      let algorithms =
        Array.of_list
          (List.filter
             (fun a -> a <> Core.Synthesis.Exact)
             Assign.Solve.all)
      in
      let requests =
        Array.init 6 (fun i ->
            let g, tbl = instance ~seed:(seed + i) in
            let levels =
              match Workloads.Prng.int rng 3 with
              | 0 -> None
              | n ->
                  Some
                    (Fulib.Dvfs.uniform ~levels:(n + 1)
                       ~types:(Fulib.Table.num_types tbl))
            in
            Core.Synthesis.request
              ~scheduler:
                (pick
                   [|
                     Core.Synthesis.List_scheduling;
                     Core.Synthesis.Force_directed;
                   |])
              ~validate:(Workloads.Prng.int rng 2 = 0)
              ~budget_ms:(pick [| 0; 1; 2; 5 |])
              ?levels ~rtl:(Workloads.Prng.int rng 2 = 0) ~algorithm:(pick algorithms)
              ~deadline:
                (Core.Synthesis.min_deadline g tbl + Workloads.Prng.int rng 7)
              g tbl)
      in
      let wire = Serve.Jsonl.response_to_string ~id:(Obs.Json.Int 0) in
      let unbudgeted =
        Array.map
          (fun (r : Core.Synthesis.request) ->
            wire (Core.Synthesis.solve { r with budget_ms = None }))
          requests
      in
      let timed_out (req : Core.Synthesis.request)
          (resp : Core.Synthesis.response) =
        resp.status = Core.Synthesis.Timeout
        && resp.result = None
        && resp.stats = [ ("nodes", Dfg.Graph.num_nodes req.graph) ]
      in
      List.for_all
        (fun domains ->
          let answers =
            Par.Pool.with_pool ~domains @@ fun pool ->
            Par.Pool.map_array pool Core.Synthesis.solve requests
          in
          Array.for_all Fun.id
            (Array.mapi
               (fun i resp ->
                 wire resp = unbudgeted.(i) || timed_out requests.(i) resp)
               answers))
        [ 1; 2 ])

(* --- run --------------------------------------------------------------- *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "serve"
    [
      ( "digest",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "sensitivity" `Quick test_digest_sensitivity;
          Alcotest.test_case "edge order canonical" `Quick
            test_digest_edge_order_canonical;
          Alcotest.test_case "knob encodings distinct" `Quick
            test_digest_knob_encodings;
        ]
        @ qsuite [ qcheck_digest_edge_order; qcheck_digest_field_sensitivity ] );
      ( "cache",
        [
          Alcotest.test_case "byte-identical replay" `Quick
            test_cached_response_byte_identical;
          Alcotest.test_case "hit/miss counters" `Quick
            test_cache_hit_miss_counters;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "timeout not cached" `Quick
            test_cache_skips_timeout;
          Alcotest.test_case "HETSCHED_CACHE_ENTRIES" `Quick
            test_entries_ignore_env;
          Alcotest.test_case "concurrent hammer, 4 domains" `Quick
            test_cache_concurrent_hammer;
          Alcotest.test_case "holds exactly its capacity" `Quick
            test_cache_exact_capacity;
        ]
        @ qsuite [ qcheck_cache_matches_lru_model ] );
      ( "server",
        [
          Alcotest.test_case "queue bounds and order" `Quick
            test_queue_bounds_and_order;
          Alcotest.test_case "solve_batch waves" `Quick test_solve_batch_waves;
          Alcotest.test_case "poisoned request isolated" `Quick
            test_poisoned_request_isolated;
        ] );
      ( "differential",
        qsuite
          [
            qcheck_server_matches_sequential;
            qcheck_cache_parity;
            qcheck_domain_parity;
            qcheck_timeout_neighbours_survive;
          ] );
      ( "jsonl",
        [
          Alcotest.test_case "inline round trip" `Quick
            test_jsonl_inline_round_trip;
          Alcotest.test_case "rtl knob and response block" `Quick
            test_jsonl_rtl_block;
          Alcotest.test_case "parse errors" `Quick test_jsonl_parse_errors;
          Alcotest.test_case "field validation names the field" `Quick
            test_jsonl_field_validation;
          Alcotest.test_case "deadline_factor out of range" `Quick
            test_deadline_factor_range;
          Alcotest.test_case "tree needs a forest" `Quick
            test_tree_needs_forest;
          Alcotest.test_case "table cells bounded" `Quick
            test_table_cell_bound;
          Alcotest.test_case "serve channels" `Quick test_jsonl_serve_channels;
          Alcotest.test_case "resident catalogue serves identically" `Quick
            test_catalogue_serves_identically;
          Alcotest.test_case "admission round trip" `Quick
            test_jsonl_serve_admission;
          Alcotest.test_case "jsonl serve keeps the passed controller" `Quick
            test_jsonl_serve_keeps_controller;
          Alcotest.test_case "rtl digest covers ops" `Quick
            test_rtl_digest_covers_ops;
        ]
        @ qsuite [ qcheck_jsonl_round_trips_encoding ]
        @ [
            Alcotest.test_case "trace field records no spans" `Quick
              test_trace_field_ignored;
          ] );
      ( "stages",
        [
          Alcotest.test_case "spans name every stage in order" `Quick
            test_stage_spans;
          Alcotest.test_case "early exits in stage order" `Quick
            test_stage_early_exits;
        ]
        @ qsuite [ qcheck_budget_answers_or_times_out ] );
    ]
