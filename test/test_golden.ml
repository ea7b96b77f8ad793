(* Golden-output regression tests: the experiment drivers are fully
   deterministic (seeded PRNGs, no wall-clock), so their text output is a
   precise regression oracle. When an intentional change shifts the
   numbers, regenerate with:

     dune exec bin/experiments.exe -- motivational > test/golden/motivational.txt
     dune exec bin/experiments.exe -- table2       > test/golden/table2.txt
     dune exec bin/experiments.exe -- ablation     > test/golden/ablation.txt

   (strip any harness noise lines first) and review the diff like any other
   code change. *)

let quick = Helpers.quick

let read_golden name =
  let path = Filename.concat "golden" name in
  if Sys.file_exists path then
    Some (In_channel.with_open_text path In_channel.input_all)
  else None

(* normalise line endings / trailing whitespace so the comparison is about
   content, not incidental padding *)
let normalise s =
  String.split_on_char '\n' s
  |> List.map (fun l ->
         let n = String.length l in
         let rec rstrip i = if i > 0 && l.[i - 1] = ' ' then rstrip (i - 1) else i in
         String.sub l 0 (rstrip n))
  |> List.filter (fun l -> l <> "")
  |> String.concat "\n"

(* fails naming the first differing line, for a readable failure *)
let fail_drift name expected actual =
  let el = String.split_on_char '\n' expected in
  let al = String.split_on_char '\n' actual in
  let rec first_diff i = function
    | e :: es, a :: als ->
        if e <> a then (i, e, a) else first_diff (i + 1) (es, als)
    | e :: _, [] -> (i, e, "<missing>")
    | [], a :: _ -> (i, "<missing>", a)
    | [], [] -> (i, "", "")
  in
  let i, e, a = first_diff 1 (el, al) in
  Alcotest.failf "%s drifted at line %d:\n  golden: %s\n  actual: %s" name i
    e a

let check_against name actual =
  match read_golden name with
  | None -> () (* golden files not shipped in this build sandbox *)
  | Some expected ->
      let expected = normalise expected and actual = normalise actual in
      if expected <> actual then fail_drift name expected actual

let test_motivational () =
  check_against "motivational.txt" (Core.Experiments.motivational ())

let test_table2 () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Table 2 (general DFGs)\n======================\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (Core.Experiments.render_report r);
      Buffer.add_char buf '\n')
    (Core.Experiments.table2 ());
  check_against "table2.txt" (Buffer.contents buf)

let test_ablation () =
  let s =
    Core.Experiments.ablation_expand () ^ "\n" ^ Core.Experiments.ablation_order ()
  in
  check_against "ablation.txt" s

(* --- served bytes -------------------------------------------------------

   [solve_grid ()] is one [Serve.Jsonl.response_to_string] line per request
   of a fixed grid, so the cost, config and lower_bound bytes the service
   answers with are pinned, not just the experiment tables:

   - every catalogue filter at deadline factors 1.0 and 1.5 under repeat,
     once and greedy, with both schedulers, at one seed;
   - the lines of data/serve_smoke.jsonl;
   - the six paper filters with validate, rtl and levels:3 (each alone and
     all together);
   - twenty seeded random 60..140-node DAGs (n/3 extra edges) under repeat
     and once.

   The file is compared byte for byte. When an intentional change moves
   the bytes, review why, then regenerate with

     dune exec test/test_golden.exe -- solve-grid > test/golden/solve_grid.jsonl *)

let smoke_path =
  List.find_opt Sys.file_exists
    [ "../data/serve_smoke.jsonl"; "data/serve_smoke.jsonl" ]

let solve_item ({ id; request } : Serve.Jsonl.item) =
  Serve.Jsonl.response_to_string ~id (Core.Synthesis.solve request)

let solve_text ~line text =
  match Helpers.solve_line ~lookup:Workloads.Catalogue.lookup ~line text with
  | Ok item -> solve_item item
  | Error e -> Alcotest.failf "solve grid line %d: %s" line e

let grid_requests () =
  let catalogue =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun factor ->
            List.concat_map
              (fun algo ->
                List.map
                  (fun sched ->
                    Printf.sprintf
                      {|{"id":"%s/%s/%s/%s","benchmark":"%s","seed":7,"deadline_factor":%s,"algorithm":"%s","scheduler":"%s"}|}
                      bench factor algo sched bench factor algo sched)
                  [ "list"; "force" ])
              [ "repeat"; "once"; "greedy" ])
          [ "1.0"; "1.5" ])
      (Workloads.Catalogue.names ())
  in
  let smoke =
    match smoke_path with
    | None -> Alcotest.fail "data/serve_smoke.jsonl not found"
    | Some p ->
        In_channel.with_open_text p In_channel.input_lines
        |> List.filter (fun l -> String.trim l <> "")
  in
  let knobs =
    [
      ("validate", {|"validate":true|});
      ("rtl", {|"rtl":true|});
      ("levels", {|"levels":3|});
      ("all", {|"validate":true,"rtl":true,"levels":3|});
    ]
  in
  let flow =
    List.concat_map
      (fun (bench, _) ->
        List.map
          (fun (tag, knob) ->
            Printf.sprintf
              {|{"id":"%s/%s","benchmark":"%s","deadline_factor":1.2,"algorithm":"repeat",%s}|}
              bench tag bench knob)
          knobs)
      (Workloads.Filters.all ())
  in
  catalogue @ smoke @ flow

(* The grid's random DAG requests, with their ids. *)
let random_dag_items () =
  List.concat_map
    (fun i ->
      let r = Workloads.Prng.create (1000 + i) in
      let n = 60 + (20 * (i mod 5)) in
      let g = Workloads.Random_dfg.random_dag r ~n ~extra_edges:(n / 3) in
      let table =
        Workloads.Tables.random_tradeoff r ~library:Fulib.Library.standard3
          ~num_nodes:n
      in
      let factor = [| 1.0; 1.3; 1.6; 2.0 |].(i mod 4) in
      let tmin = Core.Synthesis.min_deadline g table in
      let deadline = max tmin (int_of_float (factor *. float_of_int tmin)) in
      List.map
        (fun (name, algorithm) ->
          {
            Serve.Jsonl.id = Obs.Json.String (Printf.sprintf "dag-%d/%s" i name);
            request = Core.Synthesis.request ~algorithm ~deadline g table;
          })
        [ ("repeat", Core.Synthesis.Repeat); ("once", Core.Synthesis.Once) ])
    (List.init 20 Fun.id)

let random_dag_lines () = List.map solve_item (random_dag_items ())

(* Validation is pinned off (lines that ask for it still get it): a forced
   audit under HETSCHED_VALIDATE adds its own stats to every response. *)
let solve_grid () =
  Check.Env.set_override (Some false);
  Fun.protect
    ~finally:(fun () -> Check.Env.set_override None)
    (fun () ->
      let lines =
        List.mapi
          (fun i text -> solve_text ~line:(i + 1) text)
          (grid_requests ())
        @ random_dag_lines ()
      in
      String.concat "" (List.map (fun l -> l ^ "\n") lines))

let test_solve_grid () =
  match read_golden "solve_grid.jsonl" with
  | None -> Alcotest.fail "golden/solve_grid.jsonl missing"
  | Some expected ->
      let actual = solve_grid () in
      if actual <> expected then fail_drift "solve_grid.jsonl" expected actual

(* --- cached answers are the rendered bytes ---------------------------------

   A cache hit answers with the stored body spliced behind the line's id.
   Every grid request (the random DAGs as inline lines) is sent once under
   its own id, then under the ids 0, -7, "x" and a string that needs
   escapes, through one daemon with a 4-entry cache in waves of 3: a copy
   is a duplicate within its wave, or a hit or a miss in a later one, and
   the cache evicts throughout. Every answer must equal
   [response_to_string] of a fresh solve, byte for byte. *)

let odd_ids =
  Obs.Json.
    [ Int 0; Int (-7); String "x"; String "tab\t \"q\" \\ \001 \xc3\xa9" ]

(* [line] answered under [id]: the first "id" binding is the one decoded. *)
let with_id id line =
  match Obs.Json.parse line with
  | Ok (Obs.Json.Obj fields) ->
      Obs.Json.to_string (Obs.Json.Obj (("id", id) :: fields))
  | _ -> Alcotest.failf "not a request object: %s" line

let inline_line ({ id; request } : Serve.Jsonl.item) =
  let module J = Obs.Json in
  let g = request.Core.Synthesis.graph and table = request.Core.Synthesis.table in
  let n = Dfg.Graph.num_nodes g and k = Fulib.Table.num_types table in
  let rows cell =
    J.List
      (List.init n (fun node ->
           J.List (List.init k (fun ftype -> J.Int (cell table ~node ~ftype)))))
  in
  J.to_string
    (J.Obj
       [
         ("id", id);
         ( "graph",
           J.Obj
             [
               ( "nodes",
                 J.List
                   (List.init n (fun v ->
                        J.Obj
                          [
                            ("name", J.String (Dfg.Graph.name g v));
                            ("op", J.String (Dfg.Graph.op g v));
                          ])) );
               ( "edges",
                 J.List
                   (List.map
                      (fun (e : Dfg.Graph.edge) ->
                        J.List [ J.Int e.src; J.Int e.dst; J.Int e.delay; J.Int e.size ])
                      (Dfg.Graph.edges g)) );
             ] );
         ( "table",
           J.Obj
             [
               ( "types",
                 J.List
                   (List.init k (fun t ->
                        J.String
                          (Fulib.Library.type_name (Fulib.Table.library table) t)))
               );
               ("time", rows Fulib.Table.time);
               ("cost", rows Fulib.Table.cost);
             ] );
         ("deadline", J.Int request.Core.Synthesis.deadline);
         ( "algorithm",
           J.String
             (Core.Synthesis.algorithm_name request.Core.Synthesis.algorithm) );
       ])

let counter name = Option.value (Obs.Counter.value_of name) ~default:0

let test_splice ~domains () =
  let lookup = Workloads.Catalogue.lookup in
  let requests =
    grid_requests () @ List.map inline_line (random_dag_items ())
  in
  let sent =
    List.concat_map
      (fun line ->
        match Helpers.solve_line ~lookup ~line:1 line with
        | Error e -> Alcotest.failf "%s: %s" line e
        | Ok { id; request } ->
            let resp = Core.Synthesis.solve request in
            (line, id, Serve.Jsonl.response_to_string ~id resp)
            :: List.map
                 (fun id ->
                   (with_id id line, id, Serve.Jsonl.response_to_string ~id resp))
                 odd_ids)
      requests
  in
  let lines = List.map (fun (line, _, _) -> line) sent in
  let path = Filename.temp_file "splice" ".jsonl" in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines);
  let hits = counter "serve.cache.hit"
  and misses = counter "serve.cache.miss"
  and evictions = counter "serve.cache.evict" in
  let out = ref [] in
  Par.Pool.with_pool ~domains (fun pool ->
      let daemon =
        Serve.Daemon.create ~lookup ~pool
          ~cache:(Serve.Cache.create ~entries:4 ())
          ~queue_capacity:3 ()
      in
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          ignore
            (Serve.Daemon.serve daemon ~input:fd ~emit:(fun l -> out := l :: !out))));
  Sys.remove path;
  List.iteri
    (fun i ((_, id, want), got) ->
      if want <> got then
        Alcotest.failf "line %d:\n  answered %s\n  rendered %s" (i + 1) got want;
      (* the splice is also the renderer: parse the id back independently *)
      match Obs.Json.parse got with
      | Ok json when Obs.Json.member "id" json = Some id -> ()
      | _ -> Alcotest.failf "line %d: id does not parse back: %s" (i + 1) got)
    (List.combine sent (List.rev !out));
  List.iter
    (fun (what, name, before) ->
      Alcotest.(check bool) what true (counter name > before))
    [
      ("hits", "serve.cache.hit", hits);
      ("misses", "serve.cache.miss", misses);
      ("evictions", "serve.cache.evict", evictions);
    ]

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "solve-grid" then begin
    print_string (solve_grid ());
    exit 0
  end;
  Alcotest.run "golden"
    [
      ( "golden",
        [
          quick "motivational" test_motivational;
          quick "table 2" test_table2;
          quick "ablations" test_ablation;
          quick "solve grid" test_solve_grid;
          quick "cached answers splice, 1 domain" (test_splice ~domains:1);
          quick "cached answers splice, 2 domains" (test_splice ~domains:2);
        ] );
    ]
