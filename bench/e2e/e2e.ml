(* End-to-end benchmark of `hetsched daemon`.

   For each workload: compute reference responses in-process, spawn the
   real daemon and send it the warm set (set-up), then drive it over one
   Unix-socket connection in cycles of a closed-loop batch window (32
   requests in flight), an interactive window (1 in flight) and a set-up
   sample on a spare daemon, checking every response. With --trace 1 an
   in-process replay of the same stream then times each layer's public
   function from outside.

   e2e.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
           [--json FILE] [--trace-out FILE] [--benchmark FILE]
           [--daemon EXE]

   The last line of stdout is a JSON object {correct, attempted, failed,
   metrics}: end-to-end metrics with --trace 0, per-layer ones with
   --trace 1. The exit code is 1 when any response was wrong or, with
   --benchmark, when the metric names disagree with that file. *)

let domains = max 1 (Domain.recommended_domain_count () - 1)
let inflight = 32

(* Distinct timed requests whose responses are checked byte for byte
   against an uncached, audited solve (all 24 on hot-paper). *)
let references = 64

let now_s () = float_of_int (Trace.now_ns ()) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* --- response checking --------------------------------------------------- *)

type check = {
  refs : (string, string) Hashtbl.t;  (* request key -> response after id *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable in_bytes : int;  (* timed requests only *)
  mutable out_bytes : int;
  mutable timed : int;
}

let failure chk msg =
  chk.failed <- chk.failed + 1;
  if List.length chk.errors < 5 then chk.errors <- msg :: chk.errors

let statuses =
  List.map (Printf.sprintf {|"status":"%s"|}) [ "ok"; "infeasible"; "infeasible_memory" ]

let check chk (it : Gen.item) line =
  chk.attempted <- chk.attempted + 1;
  let rest = Replay.tail_after_id line in
  let ok =
    String.starts_with ~prefix:(Printf.sprintf {|{"id":%d,|} it.id) line
    &&
    match Hashtbl.find_opt chk.refs it.key with
    | Some expected -> String.equal rest expected
    | None -> List.exists (fun prefix -> String.starts_with ~prefix rest) statuses
  in
  if not ok then
    failure chk
      (Printf.sprintf "id %d: got %s" it.id
         (if String.length line > 160 then String.sub line 0 160 ^ "..." else line))

let check_timed chk it line =
  check chk it line;
  chk.timed <- chk.timed + 1;
  chk.in_bytes <- chk.in_bytes + String.length it.Gen.line + 1;
  chk.out_bytes <- chk.out_bytes + String.length line + 1

(* --- phases ---------------------------------------------------------------- *)

let setup ~exe chk warm k =
  let t0 = now_s () in
  let d = Client.spawn ~exe ~domains k in
  Client.send d (String.concat "" (List.map (fun it -> it.Gen.line ^ "\n") warm));
  List.iter (fun it -> check chk it (Client.read_line d)) warm;
  (d, now_s () -. t0)

let pop q =
  match Queue.take_opt q with
  | Some it -> it
  | None -> Client.fail "a response arrived for no request"

(* Closed loop with [inflight] requests outstanding for [seconds], then
   drained: completed requests per second of the whole window, and the
   daemon's CPU per request between two idle points. *)
let batch chk d next ~seconds =
  let q = Queue.create () in
  let send n =
    let b = Buffer.create 4096 in
    for _ = 1 to n do
      let it = next () in
      Queue.add it q;
      Buffer.add_string b it.Gen.line;
      Buffer.add_char b '\n'
    done;
    Client.send d (Buffer.contents b)
  in
  let cpu0 = Client.cpu_us d in
  let t0 = now_s () in
  let stop = t0 +. seconds in
  send inflight;
  let rec loop n =
    let lines = Client.read_lines d in
    List.iter (fun l -> check_timed chk (pop q) l) lines;
    let k = List.length lines in
    if now_s () < stop then send k;
    if Queue.is_empty q then n + k else loop (n + k)
  in
  let n = float_of_int (loop 0) in
  (n /. (now_s () -. t0), (Client.cpu_us d -. cpu0) /. n)

(* Closed loop with one request outstanding; latency from send to the
   response line read, in microseconds, in arrival order. *)
let interactive chk d next ~seconds =
  let stop = now_s () +. seconds in
  let rec loop acc =
    if now_s () >= stop then List.rev acc
    else begin
      let it = next () in
      let line = it.Gen.line ^ "\n" in
      let t0 = Trace.now_ns () in
      Client.send d line;
      let resp = Client.read_line d in
      let lat = float_of_int (Trace.now_ns () - t0) /. 1e3 in
      check_timed chk it resp;
      loop (lat :: acc)
    end
  in
  loop []

(* The timed part of a run is a series of cycles: a batch window, an
   interactive window and a set-up sample, each between two readings of
   the host's speed (Host). Every time metric is a median over cycles or
   windows of values divided by the host's slowdown around them, so
   neither a slow spell nor a slower hour moves a result. *)
let cycle_s = 1.0
let window_requests = 1000

(* One cycle's results divided by the host's slowdown over each phase;
   the raw_ fields are as measured. *)
type cycle = {
  rate : float;  (* req/s *)
  cpu : float;  (* daemon us per request *)
  lat : float list;  (* us, in arrival order *)
  setup_s : float;
  raw_rate : float;
  raw_cpu : float;
  raw_lat : float list;
  slowdown : float;  (* over the batch window *)
}

(* Median over consecutive windows of [window_requests] latencies (the
   last window takes the remainder) of each window's [p] percentile: p99
   of 1000 samples has ten beyond it. *)
let windowed_percentile lat p =
  let a = Array.of_list lat in
  let n = Array.length a in
  let count = max 1 (n / window_requests) in
  median
    (List.init count (fun k ->
         let lo = k * window_requests in
         let hi = if k = count - 1 then n else lo + window_requests in
         let w = Array.sub a lo (hi - lo) in
         Array.sort compare w;
         percentile w p))

(* --- metrics ---------------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Layers a request crosses inside the daemon, in order. *)
let service_layers =
  [
    "json.parse"; "jsonl.decode"; "workloads.lookup"; "dfg.preheat";
    "cache.digest"; "cache.probe"; "synthesis.solve"; "cache.store";
    "jsonl.serialize";
  ]

(* The phases of Core.Synthesis.solve, timed one public call each. *)
let solve_layers =
  [
    "dvfs.expand"; "assign"; "sched.frames"; "sched.schedule"; "sched.reclaim";
    "rtl.lower"; "check.validate";
  ]

(* Per-call means reported as benchmark metrics: each is called on every
   workload, so none reads zero. *)
let reported_layers =
  [
    "json.parse"; "jsonl.decode"; "dfg.preheat"; "cache.digest"; "cache.probe";
    "cache.store"; "synthesis.solve"; "assign"; "sched.frames";
    "sched.schedule"; "jsonl.serialize";
  ]

(* Layers idle on some workloads: printed and written to --json only. *)
let sometimes_idle_layers =
  [ "workloads.lookup"; "dvfs.expand"; "sched.reclaim"; "rtl.lower"; "check.validate" ]

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  record : bool;  (* keep spans for --trace-out *)
  exe : string;
}

type outcome = {
  workload : Gen.workload;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;
  extra : metric list;
  traces : Trace.t list;
}

let new_check () =
  {
    refs = Hashtbl.create 128;
    attempted = 0;
    failed = 0;
    errors = [];
    in_bytes = 0;
    out_bytes = 0;
    timed = 0;
  }

(* Uncached, audited solves of the warm set and the first [references]
   timed requests; their layer timings are per-call samples too. *)
let compute_references cfg chk w tr =
  List.iter
    (fun (it : Gen.item) ->
      if not (Hashtbl.mem chk.refs it.key) then
        match Replay.reference tr it with
        | Ok tail -> Hashtbl.replace chk.refs it.key tail
        | Error msg -> failure chk msg)
    (Gen.warm w ~seed:cfg.seed
    @ List.init references (Gen.timed w ~seed:cfg.seed))

(* The daemon's stream replayed in-process against a fresh default cache:
   the warm set into [warm_tr], then timed positions into [tr] until
   [count] requests (what the daemon served) or [seconds] have passed. *)
let replay cfg w ~count ~seconds warm_tr tr =
  let cache =
    Serve.Cache.create ~entries:Serve.Cache.default_entries
      ~shards:Serve.Cache.default_shards ()
  in
  let serve tr it =
    match Replay.serve tr cache it with
    | Ok r -> r
    | Error msg -> Client.fail "replay of id %d: %s" it.Gen.id msg
  in
  List.iter (fun it -> ignore (serve warm_tr it)) (Gen.warm w ~seed:cfg.seed);
  let stop = now_s () +. seconds in
  let rec loop i service nodes =
    if i >= count || now_s () >= stop then (service, nodes)
    else
      let _, req, us = serve tr (Gen.timed w ~seed:cfg.seed i) in
      loop (i + 1) (us :: service)
        (nodes + Dfg.Graph.num_nodes req.Core.Synthesis.graph)
  in
  loop 0 [] 0

let traced cfg w chk ~lat_p50 ~cpu_us_per_req ref_tr =
  let warm_tr = Trace.create ~record:cfg.record in
  let tr = Trace.create ~record:cfg.record in
  let service, nodes =
    replay cfg w ~count:chk.timed ~seconds:(cfg.seconds /. 4.0) warm_tr tr
  in
  let all = [ ref_tr; warm_tr; tr ] in
  let count = float_of_int (List.length service) in
  let per_req l = fst (Trace.sum [ tr ] l) /. count in
  (* decode's own time, without the lookup nested inside it *)
  let self l =
    if l = "jsonl.decode" then per_req l -. per_req "workloads.lookup"
    else per_req l
  in
  let service_mean = List.fold_left ( +. ) 0.0 service /. count in
  let timed = float_of_int chk.timed in
  let per_layer =
    List.map (fun l -> m (l ^ "_us") "us/call" (Trace.mean_us all l)) reported_layers
    @ [
        m "trace.service_us" "us/req" service_mean;
        m "daemon.overhead_us" "us" (lat_p50 -. median service);
        m "wire.in_bytes" "B/req" (float_of_int chk.in_bytes /. timed);
        m "wire.out_bytes" "B/req" (float_of_int chk.out_bytes /. timed);
        m "synthesis.nodes" "count/req" (float_of_int nodes /. count);
        m "trace.coverage" "ratio" (service_mean /. cpu_us_per_req);
      ]
  in
  let solve_us = fst (Trace.sum [ ref_tr ] "synthesis.solve") in
  let layer_sum =
    List.fold_left
      (fun acc l -> acc +. fst (Trace.sum [ ref_tr ] l))
      0.0 solve_layers
  in
  let ratio = layer_sum /. solve_us in
  Printf.printf
    "%-10s sum check: solver layers %.0f us vs synthesis.solve %.0f us (%.1f%%): %s\n"
    (Gen.name w) layer_sum solve_us (100.0 *. ratio)
    (if Float.abs (ratio -. 1.0) <= 0.15 then "ok" else "outside 15%");
  let largest =
    List.fold_left
      (fun best l -> if self l > self best then l else best)
      (List.hd service_layers) service_layers
  in
  Printf.printf "%-10s largest layer: %s, %.1f of %.1f us/req in-process service\n"
    (Gen.name w) largest (self largest) service_mean;
  let extra =
    List.map (fun l -> m (l ^ "_us") "us/call" (Trace.mean_us all l)) sometimes_idle_layers
    @ List.map (fun l -> m ("self." ^ l) "us/req" (self l)) service_layers
    @ [
        m "trace.replayed" "count" count;
        m "trace.layer_sum_over_solve" "ratio" ratio;
      ]
  in
  (per_layer, extra, all)

let run_workload cfg w =
  let chk = new_check () in
  let ref_tr = Trace.create ~record:cfg.record in
  compute_references cfg chk w ref_tr;
  let warm = Gen.warm w ~seed:cfg.seed in
  (* [f]'s result and the host's mean slowdown over it, from the probes
     just before and just after *)
  let last = ref (Host.slowdown ()) in
  let probed f =
    let before = !last in
    let v = f () in
    last := Host.slowdown ();
    (v, (before +. !last) /. 2.0)
  in
  let (d, first_setup), first_slowdown =
    probed (fun () -> setup ~exe:cfg.exe chk warm 0)
  in
  let next =
    let i = ref 0 in
    fun () ->
      let it = Gen.timed w ~seed:cfg.seed !i in
      incr i;
      it
  in
  let cycles = max 1 (Float.to_int (Float.round (cfg.seconds /. cycle_s))) in
  let window = cfg.seconds /. float_of_int cycles /. 2.0 in
  let cycle k =
    let (rate, cpu), b = probed (fun () -> batch chk d next ~seconds:window) in
    let lat, i = probed (fun () -> interactive chk d next ~seconds:window) in
    let setup_s, s =
      probed (fun () ->
          let spare, t = setup ~exe:cfg.exe chk warm (k + 1) in
          ignore (Client.close spare);
          t)
    in
    {
      rate = rate *. b;
      cpu = cpu /. b;
      lat = List.map (fun l -> l /. i) lat;
      setup_s = setup_s /. s;
      raw_rate = rate;
      raw_cpu = cpu;
      raw_lat = lat;
      slowdown = b;
    }
  in
  let runs = List.init cycles cycle in
  let over f = median (List.map f runs) in
  let lat = List.concat_map (fun c -> c.lat) runs in
  let raw_lat = List.concat_map (fun c -> c.raw_lat) runs in
  let setups = (first_setup /. first_slowdown) :: List.map (fun c -> c.setup_s) runs in
  let peak_rss_mb = Client.peak_rss_mb d in
  let summary = Client.close d in
  let raw_lat_p50 = windowed_percentile raw_lat 0.50 in
  let end_to_end =
    [
      m "rps" "req/s" (over (fun c -> c.rate));
      m "lat_p50_us" "us" (windowed_percentile lat 0.50);
      m "lat_p90_us" "us" (windowed_percentile lat 0.90);
      m "cpu_us_per_req" "us" (over (fun c -> c.cpu));
      m "peak_rss_mb" "MB" peak_rss_mb;
      m "setup_s" "s" (median setups);
    ]
  in
  let served = float_of_int (summary.hits + summary.misses) in
  let extra =
    [
      (* The tail past p90 comes from stalls that do not scale with the
         host's speed: p99 spread 7-12% between runs of the same code. *)
      m "lat_p99_us" "us" (windowed_percentile lat 0.99);
      m "host.slowdown" "ratio" (over (fun c -> c.slowdown));
      m "raw.rps" "req/s" (over (fun c -> c.raw_rate));
      m "raw.lat_p50_us" "us" raw_lat_p50;
      m "lat_samples" "count" (float_of_int (List.length lat));
      m "cycles" "count" (float_of_int cycles);
      m "cache.hit_ratio" "ratio" (float_of_int summary.hits /. served);
      m "cache.evictions_per_1k" "count"
        (1000.0 *. float_of_int summary.evictions /. served);
    ]
  in
  let per_layer, traced_extra, traces =
    if cfg.trace then
      traced cfg w chk ~lat_p50:raw_lat_p50
        ~cpu_us_per_req:(over (fun c -> c.raw_cpu))
        ref_tr
    else ([], [], [ ref_tr ])
  in
  List.iter (Printf.eprintf "%s: FAILED %s\n" (Gen.name w)) (List.rev chk.errors);
  {
    workload = w;
    attempted = chk.attempted;
    failed = chk.failed;
    end_to_end;
    per_layer;
    extra = extra @ traced_extra;
    traces;
  }

(* --- output ----------------------------------------------------------------- *)

let metric_fields ?(prefix = "") ms =
  List.map
    (fun x ->
      ( prefix ^ x.name,
        Obs.Json.Obj
          [ ("value", Obs.Json.Float x.value); ("unit", Obs.Json.String x.unit) ] ))
    ms

let print_outcome o =
  List.iter
    (fun x ->
      Printf.printf "%-10s %-30s %16.3f %s\n" (Gen.name o.workload) x.name x.value x.unit)
    (o.end_to_end @ o.per_layer @ o.extra);
  Printf.printf "%-10s %d attempted, %d failed\n%!" (Gen.name o.workload) o.attempted
    o.failed

(* The result line: one workload's metrics as named, several workloads'
   prefixed with the workload name. *)
let result_line cfg outcomes =
  let metrics o = if cfg.trace then o.per_layer else o.end_to_end in
  let attempted = List.fold_left (fun a o -> a + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun a o -> a + o.failed) 0 outcomes in
  let metrics =
    match outcomes with
    | [ o ] -> metric_fields (metrics o)
    | _ ->
        List.concat_map
          (fun o -> metric_fields ~prefix:(Gen.name o.workload ^ ".") (metrics o))
          outcomes
  in
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (failed = 0));
         ("attempted", Obs.Json.Int attempted);
         ("failed", Obs.Json.Int failed);
         ("metrics", Obs.Json.Obj metrics);
       ])

let write_json cfg path outcomes =
  let record o =
    Obs.Json.Obj
      [
        ("workload", Obs.Json.String (Gen.name o.workload));
        ("seed", Obs.Json.Int cfg.seed);
        ("seconds", Obs.Json.Float cfg.seconds);
        ("nproc", Obs.Json.Int (Domain.recommended_domain_count ()));
        ("domains", Obs.Json.Int domains);
        ("attempted", Obs.Json.Int o.attempted);
        ("failed", Obs.Json.Int o.failed);
        ("metrics", Obs.Json.Obj (metric_fields (o.end_to_end @ o.per_layer @ o.extra)));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Obs.Json.to_string (Obs.Json.List (List.map record outcomes)));
      output_char oc '\n')

(* Disagreements between the metric names BENCHMARK.json lists and the
   ones a run produced, both ways. *)
let name_mismatches cfg path outcomes =
  let json =
    match Obs.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok json -> json
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  let listed key =
    List.filter_map
      (fun e -> Option.bind (Obs.Json.member "name" e) Obs.Json.to_string_opt)
      (Option.value ~default:[] (Option.bind (Obs.Json.member key json) Obs.Json.to_list_opt))
  in
  let diff w ~listed ~produced =
    List.filter_map
      (fun n -> if List.mem n produced then None else Some (w ^ " does not produce " ^ n))
      listed
    @ List.filter_map
        (fun n -> if List.mem n listed then None else Some (w ^ " produces unlisted " ^ n))
        produced
  in
  List.concat_map
    (fun o ->
      let w = Gen.name o.workload and names = List.map (fun x -> x.name) in
      diff w ~listed:(listed "end_to_end") ~produced:(names o.end_to_end)
      @ if cfg.trace then diff w ~listed:(listed "per_layer") ~produced:(names o.per_layer)
        else [])
    outcomes

(* --- CLI ------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
    \               [--json FILE] [--trace-out FILE] [--benchmark FILE] [--daemon EXE]";
  exit 2

let () =
  (* 20 s per workload keeps a traced run of all four under two minutes;
     BENCHMARK.json runs one workload at a time for 25 s. *)
  let workloads = ref Gen.all and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref true and json = ref None and trace_out = ref None in
  let benchmark = ref None in
  let exe =
    ref
      (Filename.concat
         (Filename.dirname (Filename.dirname (Filename.dirname Sys.executable_name)))
         "bin/hetsched.exe")
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: "all" :: rest -> workloads := Gen.all; parse rest
    | "--workload" :: name :: rest -> (
        match Gen.of_name name with
        | Some w -> workloads := [ w ]; parse rest
        | None -> Printf.eprintf "unknown workload %S\n" name; usage ())
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest when Option.fold ~none:false ~some:(fun s -> s > 0.0) (float_of_string_opt s) ->
        seconds := float_of_string s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--json" :: path :: rest -> json := Some path; parse rest
    | "--trace-out" :: path :: rest -> trace_out := Some path; parse rest
    | "--benchmark" :: path :: rest -> benchmark := Some path; parse rest
    | "--daemon" :: path :: rest -> exe := path; parse rest
    | arg :: _ -> Printf.eprintf "bad argument %S\n" arg; usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not (Sys.file_exists !exe) then begin
    Printf.eprintf "e2e: daemon executable %s not found (build bin/hetsched.exe)\n" !exe;
    exit 2
  end;
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* References and the replay must answer as the daemon does, and the
     daemon runs without any HETSCHED_* variable. *)
  Check.Env.set_override (Some false);
  Obs.Env.set_trace (Some false);
  Par.Pool.set_global_domains 1;
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace;
      record = !trace_out <> None;
      exe = !exe;
    }
  in
  let outcomes =
    match List.map (run_workload cfg) !workloads with
    | outcomes -> outcomes
    | exception Client.Broken msg ->
        Printf.eprintf "e2e: %s\n" msg;
        exit 1
    | exception Unix.Unix_error (e, fn, _) ->
        Printf.eprintf "e2e: %s: %s\n" fn (Unix.error_message e);
        exit 1
  in
  List.iter print_outcome outcomes;
  Option.iter (fun path -> write_json cfg path outcomes) !json;
  Option.iter
    (fun path ->
      Trace.write_chrome path
        (List.concat
           (List.mapi (fun i o -> List.map (fun t -> (i + 1, t)) o.traces) outcomes)))
    !trace_out;
  let missing =
    match !benchmark with None -> [] | Some path -> name_mismatches cfg path outcomes
  in
  List.iter (Printf.eprintf "e2e: metric names: %s\n") missing;
  print_endline (result_line cfg outcomes);
  if missing <> [] || List.exists (fun o -> o.failed > 0) outcomes then exit 1
