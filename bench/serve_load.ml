(* Sustained-throughput load bench for the streaming daemon.

   Unlike the Bechamel micro-benches, this is a closed-loop macro bench:
   a daemon runs on its own domain behind a pipe pair and a driver pushes
   JSONL waves at it, reading every wave's responses before sending the
   next. Per-configuration output is requests per second plus p50/p99
   end-to-end latency read from the serve.daemon.latency_ns histogram
   (bucket deltas around the run, so concurrent configs never pollute
   each other).

   Three workloads, each swept over a domain-count list:
     hot    — four distinct requests repeated, cache pre-warmed: every
              request is a digest + shard probe
     cold   — every request distinct: every request is a full solve
     mixed  — 4:1 hot:cold, the realistic steady state

   Two extra rows time the sharded cache directly: domains concurrent
   hammer loops over a pre-warmed cache, shards:8 vs shards:1. On a
   single hardware core the shard win is mutex-convoy avoidance, not
   parallel probing, so the gap is modest; on real multicore it widens.

   Rows are emitted in the same JSON schema as bench/main.exe
   ({name, n, wall_ns, speedup_vs_seq}, wall_ns = mean per request) plus
   extra fields (req_per_s, p50_ns, p99_ns) that bench_gate.exe carries
   through its trajectories. *)

let lib3 = Fulib.Library.standard3

let instance ~n ~seed =
  let rng = Workloads.Prng.create seed in
  let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 3) in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:n in
  (g, tbl)

let lookup _name ~seed = Some (instance ~n:12 ~seed)

let request_line ~id ~seed =
  Printf.sprintf
    {|{"id": %d, "benchmark": "rand", "seed": %d, "deadline_factor": 1.4}|}
    id seed

(* --- workloads --------------------------------------------------------- *)

type workload = Hot | Cold | Mixed

let workload_name = function Hot -> "hot" | Cold -> "cold" | Mixed -> "mixed"
let hot_seeds = [| 1; 2; 3; 4 |]

let seed_of workload i =
  match workload with
  | Hot -> hot_seeds.(i mod Array.length hot_seeds)
  | Cold -> 100_000 + i
  | Mixed ->
      if i mod 5 = 4 then 200_000 + i
      else hot_seeds.(i mod Array.length hot_seeds)

(* --- rows -------------------------------------------------------------- *)

type row = {
  name : string;
  n : int;
  wall_ns : float; (* mean wall time per request *)
  extras : (string * float) list;
}

(* --- the closed-loop daemon driver ------------------------------------- *)

let wave_size = 32

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let run_daemon_config ~domains ~workload ~requests =
  Par.Pool.set_global_domains domains;
  let cache = Serve.Cache.create ~entries:2048 () in
  let server = Serve.Server.create ~cache ~queue_capacity:wave_size () in
  let daemon = Serve.Daemon.create ~lookup server in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let worker =
    Domain.spawn (fun () ->
        let n = Serve.Daemon.serve_fd daemon ~input:in_r ~output:out_w in
        Unix.close out_w;
        Unix.close in_r;
        n)
  in
  let responses = Unix.in_channel_of_descr out_r in
  let next_id = ref 0 in
  let send_wave count =
    let buf = Buffer.create (count * 80) in
    for _ = 1 to count do
      Buffer.add_string buf
        (request_line ~id:!next_id ~seed:(seed_of workload !next_id));
      Buffer.add_char buf '\n';
      incr next_id
    done;
    let s = Buffer.contents buf in
    write_all in_w s 0 (String.length s);
    for _ = 1 to count do
      ignore (input_line responses)
    done
  in
  (* pre-warm: the hot working set must already be cached when the clock
     starts, and the first wave also pays domain/pool spin-up *)
  send_wave (Array.length hot_seeds);
  let hist = Serve.Daemon.latency_histogram () in
  let before = Obs.Histogram.buckets hist in
  let t0 = Unix.gettimeofday () in
  let sent = ref 0 in
  while !sent < requests do
    let count = min wave_size (requests - !sent) in
    send_wave count;
    sent := !sent + count
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let after = Obs.Histogram.buckets hist in
  Unix.close in_w;
  ignore (Domain.join worker);
  close_in responses;
  let delta = Array.map2 ( - ) after before in
  {
    name =
      Printf.sprintf "hetsched/serve-load/%s:%d" (workload_name workload)
        domains;
    n = domains;
    wall_ns = wall *. 1e9 /. float_of_int requests;
    extras =
      [
        ("req_per_s", float_of_int requests /. wall);
        ("p50_ns", Obs.Histogram.quantile_of_buckets delta 0.50);
        ("p99_ns", Obs.Histogram.quantile_of_buckets delta 0.99);
      ];
  }

(* --- sharded vs single-mutex hammer ------------------------------------ *)

(* Probes on precomputed digests — shard pick, lock, hashtable hit — so
   the measured wall time is the cache structure itself, not the (shared,
   identical) digest cost in front of it. The traffic is a hot cache
   under churn: every domain sweeps the same pre-warmed hot working set
   from a different offset (hits that bump recency), and every eighth
   operation stores a never-seen digest, forcing an LRU eviction once the
   cache is at capacity. Eviction scans the whole owning shard under its
   lock, so the single-mutex cache pays an O(capacity) scan while each of
   8 shards scans an eighth as much — the churn is where sharding wins
   even before lock contention does. The hot set stays resident: its
   recency is refreshed constantly, so the LRU victim is always a stale
   cold entry. *)
let hammer_capacity = 256
let churn_every = 8

let hammer_requests =
  lazy
    (Array.init 16 (fun i ->
         let g, tbl = instance ~n:6 ~seed:(500 + i) in
         let deadline = Core.Synthesis.min_deadline g tbl + 3 in
         let req =
           Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline g
             tbl
         in
         (req, Serve.Cache.digest req)))

(* Digest-shaped fresh keys, distinct per (tag, index); hex via md5 so
   they spread over the shards exactly like real digests. *)
let cold_keys ~tag ~count =
  Array.init count (fun i ->
      Digest.to_hex (Digest.string (Printf.sprintf "cold-%d-%d" tag i)))

let run_hammer ~shards ~domains ~iters =
  let reqs = Lazy.force hammer_requests in
  let cache = Serve.Cache.create ~entries:hammer_capacity ~shards () in
  Array.iter (fun (req, _) -> ignore (Serve.Cache.solve cache req)) reqs;
  let digests = Array.map snd reqs in
  let resp =
    match Serve.Cache.find_digest cache digests.(0) with
    | Some r -> r
    | None -> assert false
  in
  (* fill to capacity so every timed store evicts *)
  Array.iter
    (fun key -> Serve.Cache.store_digest cache key resp)
    (cold_keys ~tag:(-1) ~count:hammer_capacity);
  let per_domain =
    Array.init domains (fun d ->
        (d * 5, cold_keys ~tag:d ~count:((iters / churn_every) + 1)))
  in
  Par.Pool.with_pool ~domains @@ fun pool ->
  let t0 = Unix.gettimeofday () in
  ignore
    (Par.Pool.map_array pool
       (fun (offset, cold) ->
         for k = 0 to iters - 1 do
           if k mod churn_every = churn_every - 1 then
             Serve.Cache.store_digest cache cold.(k / churn_every) resp
           else
             ignore
               (Serve.Cache.find_digest cache
                  digests.((k + offset) mod Array.length digests))
         done)
       per_domain);
  let wall = Unix.gettimeofday () -. t0 in
  wall *. 1e9 /. float_of_int (domains * iters)

let hammer_rows ~domains ~iters =
  let sharded = run_hammer ~shards:8 ~domains ~iters in
  let single = run_hammer ~shards:1 ~domains ~iters in
  (* the 1-domain rows are the uncontended probe baseline: any gap between
     them is structure, any extra gap at [domains] is lock behaviour *)
  let sharded1 = run_hammer ~shards:8 ~domains:1 ~iters in
  let single1 = run_hammer ~shards:1 ~domains:1 ~iters in
  [
    {
      name = Printf.sprintf "hetsched/serve-load/cache-hot-sharded:%d" domains;
      n = domains;
      wall_ns = sharded;
      extras = [ ("single_over_sharded", single /. sharded) ];
    };
    {
      name = Printf.sprintf "hetsched/serve-load/cache-hot-single:%d" domains;
      n = domains;
      wall_ns = single;
      extras = [];
    };
    {
      name = "hetsched/serve-load/cache-hot-sharded:1";
      n = 1;
      wall_ns = sharded1;
      extras = [];
    };
    {
      name = "hetsched/serve-load/cache-hot-single:1";
      n = 1;
      wall_ns = single1;
      extras = [];
    };
  ]

(* --- output ------------------------------------------------------------ *)

let print_rows rows =
  Printf.printf "%-44s %12s %12s %12s %12s\n" "benchmark" "wall/req"
    "req/s" "p50" "p99";
  Printf.printf "%s\n" (String.make 96 '-');
  List.iter
    (fun r ->
      let f key = List.assoc_opt key r.extras in
      let ns v =
        if v >= 1e6 then Printf.sprintf "%.2fms" (v /. 1e6)
        else if v >= 1e3 then Printf.sprintf "%.1fus" (v /. 1e3)
        else Printf.sprintf "%.0fns" v
      in
      let opt fmt = function Some v -> fmt v | None -> "-" in
      Printf.printf "%-44s %12s %12s %12s %12s\n" r.name (ns r.wall_ns)
        (opt (Printf.sprintf "%.0f") (f "req_per_s"))
        (opt ns (f "p50_ns"))
        (opt ns (f "p99_ns")))
    rows

let write_json path rows =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      let extras =
        String.concat ""
          (List.map
             (fun (k, v) -> Printf.sprintf ", \"%s\": %.3f" k v)
             r.extras)
      in
      Printf.fprintf oc
        "  {\"name\": \"%s\", \"n\": %d, \"wall_ns\": %.1f, \
         \"speedup_vs_seq\": 1.000%s}%s\n"
        r.name r.n r.wall_ns extras
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %d benchmark rows to %s\n" (List.length rows) path

(* --- CLI --------------------------------------------------------------- *)

(* serve_load.exe [--quick] [--json FILE] [--domains 1,2,4,8] *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse (quick, json, domains) = function
    | [] -> (quick, json, domains)
    | "--quick" :: rest -> parse (true, json, domains) rest
    | "--json" :: path :: rest -> parse (quick, Some path, domains) rest
    | "--domains" :: spec :: rest ->
        let ds =
          List.filter_map int_of_string_opt (String.split_on_char ',' spec)
        in
        if ds = [] || List.exists (fun d -> d < 1) ds then begin
          Printf.eprintf "bad --domains spec %S\n" spec;
          exit 2
        end;
        parse (quick, json, ds) rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %S\n" arg;
        exit 2
  in
  let quick, json, domains = parse (false, None, [ 1; 2; 4; 8 ]) args in
  let requests = if quick then 64 else 256 in
  let iters = if quick then 2_000 else 20_000 in
  let rows =
    List.concat_map
      (fun workload ->
        List.map
          (fun domains -> run_daemon_config ~domains ~workload ~requests)
          domains)
      [ Hot; Cold; Mixed ]
    (* the shard comparison is pinned at 4 domains — the acceptance
       configuration — independent of the --domains sweep *)
    @ hammer_rows ~domains:4 ~iters
  in
  print_rows rows;
  match json with None -> () | Some path -> write_json path rows
