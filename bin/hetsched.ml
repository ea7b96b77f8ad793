(* Command-line front end: inspect benchmark DFGs, export DOT, and run the
   two-phase synthesis pipeline on them. *)

open Cmdliner

(* Benchmark names resolve through the catalogue the daemon serves from,
   so the CLI and the wire accept the same names and build the same
   graph and seeded table. *)
let benchmark ~seed name =
  match Workloads.Catalogue.lookup name ~seed with
  | Some instance -> instance
  | None ->
      Printf.eprintf "unknown benchmark %S (known: %s)\n" name
        (String.concat ", " (Workloads.Catalogue.names ()));
      exit 2

let benchmark_arg =
  let doc = "Benchmark DFG name (see $(b,list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK" ~doc)

let benchmark_opt_arg =
  let doc = "Benchmark DFG name (ignored when $(b,--file) is given)." in
  Arg.(value & pos 0 string "diffeq" & info [] ~docv:"BENCHMARK" ~doc)

let file_arg =
  let doc = "Load the DFG (and its fu-types table, if present) from a netlist file instead of a built-in benchmark." in
  Arg.(value & opt (some file) None & info [ "file"; "f" ] ~doc)

(* resolve the instance: --file wins; otherwise a named benchmark with a
   seeded random table *)
let instance ~name ~file ~seed =
  match file with
  | Some path -> (
      match Netlist.load ~path with
      | g, Some table -> (g, table)
      | g, None -> (g, Workloads.Tables.seeded ~seed g)
      | exception Netlist.Parse_error (line, msg) ->
          Printf.eprintf "%s:%d: %s\n" path line msg;
          exit 2)
  | None -> benchmark ~seed name

let seed_arg =
  let doc = "Seed for the random time/cost table." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

(* Checked integers: a value out of range is a usage error naming the
   flag, not an exception from deep inside. *)
let int_in ~lo ~hi ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, Format.pp_print_int)

(* Sizes and counts that must be at least 1. *)
let positive_int = int_in ~lo:1 ~hi:max_int ~what:"a positive integer"

let list_cmd =
  let run () =
    List.iter
      (fun name ->
        let g, _ = benchmark ~seed:42 name in
        let _, tree = Assign.Dfg_assign.choose_tree g in
        Printf.printf "%-21s %3d nodes, %3d edges, %s, %d duplicated nodes\n"
          name (Dfg.Graph.num_nodes g) (Dfg.Graph.num_edges g)
          (if Dfg.Graph.is_tree g || Dfg.Graph.is_in_tree g then "tree"
           else "DAG")
          (List.length (Dfg.Expand.duplicated_nodes tree)))
      (Workloads.Catalogue.names ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List benchmark DFGs") Term.(const run $ const ())

let show_cmd =
  let run name =
    let g, _ = benchmark ~seed:42 name in
    Format.printf "%a@." Dfg.Graph.pp g
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a benchmark DFG")
    Term.(const run $ benchmark_arg)

let dot_cmd =
  let run name =
    let g, _ = benchmark ~seed:42 name in
    print_string (Dfg.Dot.to_dot g)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Export a benchmark DFG as Graphviz DOT")
    Term.(const run $ benchmark_arg)

(* The wire's parser: a display or bare constructor name, any case, so
   [--algo repeat] means what ["algorithm": "repeat"] does. *)
let algo_arg =
  let algo_conv =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Assign.Solve.of_name_result s)
    in
    let print ppf a =
      Format.pp_print_string ppf
        (String.lowercase_ascii (Core.Synthesis.algorithm_name a))
    in
    Arg.conv (parse, print)
  in
  let doc =
    "Assignment algorithm, case-insensitive: " ^ Assign.Solve.catalogue ()
    ^ "."
  in
  Arg.(value & opt algo_conv Core.Synthesis.Repeat
       & info [ "algo" ] ~docv:"ALGO" ~doc)

let deadline_arg =
  let doc = "Timing constraint (control steps); default 1.2x the minimum." in
  Arg.(value & opt (some int) None & info [ "deadline"; "T" ] ~doc)

let deadline_or_default deadline g table =
  match deadline with
  | Some t -> t
  | None -> Core.Synthesis.default_deadline g table

let levels_arg =
  let doc =
    "DVFS frequency levels per FU type (uniform ladders from 100%% down to \
     50%%); the cost column becomes energy and static slack is reclaimed \
     after scheduling."
  in
  let levels = int_in ~lo:1 ~hi:16 ~what:"an integer in 1..16" in
  Arg.(value & opt (some levels) None & info [ "levels" ] ~docv:"N" ~doc)

let synth_cmd =
  let run name seed algo deadline file levels =
    let g, table = instance ~name ~file ~seed in
    let deadline = deadline_or_default deadline g table in
    let levels =
      Option.map
        (fun n ->
          Fulib.Dvfs.uniform ~levels:n ~types:(Fulib.Table.num_types table))
        levels
    in
    let label = match file with Some p -> p | None -> name in
    Printf.printf "instance %s, deadline %d (minimum %d)\n" label deadline
      (Core.Synthesis.min_deadline g table);
    let req = Core.Synthesis.request ?levels ~algorithm:algo ~deadline g table in
    let resp = Core.Synthesis.solve req in
    match (resp.Core.Synthesis.status, resp.Core.Synthesis.result) with
    | Core.Synthesis.Ok, Some r ->
        let table = Core.Synthesis.response_table req resp in
        Format.printf "%a@." (Core.Synthesis.pp_result ~graph:g ~table) r;
        (match resp.Core.Synthesis.dvfs with
        | None -> ()
        | Some d ->
            Printf.printf
              "energy: %d before reclamation, %d after (%d saved, %d move(s))\n"
              d.Core.Synthesis.energy_before d.Core.Synthesis.energy_after
              (d.Core.Synthesis.energy_before - d.Core.Synthesis.energy_after)
              d.Core.Synthesis.reclaim_moves)
    | Core.Synthesis.Infeasible, _ ->
        print_endline "infeasible: no assignment meets the deadline"
    | Core.Synthesis.Infeasible_memory, _ ->
        print_endline
          "infeasible: per-FU memory capacity exceeded (deadline alone is \
           meetable)"
    | Core.Synthesis.Timeout, _ -> print_endline "timeout: budget exhausted"
    | Core.Synthesis.Error msg, _ ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Core.Synthesis.Ok, None ->
        Printf.eprintf "error: ok status without a result\n";
        exit 1
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Run assignment + minimum-resource scheduling")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ algo_arg $ deadline_arg
          $ file_arg $ levels_arg)

(* Online re-solve demo: expand the instance's table with DVFS ladders,
   then drift node execution times for a number of rounds. Each round the
   controller re-simulates the running schedule, re-solves incrementally
   when at risk, and the result is differentially checked against a full
   from-scratch re-synthesis — any divergence is a hard failure (exit 1),
   which is what the CI dvfs-smoke job greps for. *)
let dvfs_cmd =
  let rounds_arg =
    let doc = "Perturbation rounds to run." in
    Arg.(value & opt positive_int 20 & info [ "rounds" ] ~docv:"N" ~doc)
  in
  let run name seed deadline file levels rounds =
    let g, base = instance ~name ~file ~seed in
    let levels = Option.value levels ~default:3 in
    let table, _mapping =
      match
        Fulib.Dvfs.expand base
          ~levels:(Fulib.Dvfs.uniform ~levels ~types:(Fulib.Table.num_types base))
      with
      | expanded -> expanded
      | exception Invalid_argument msg ->
          Printf.eprintf "levels: %s\n" msg;
          exit 2
    in
    let deadline = deadline_or_default deadline g base in
    let label = match file with Some p -> p | None -> name in
    Printf.printf "instance %s, %d levels (%d expanded types), deadline %d\n"
      label levels (Fulib.Table.num_types table) deadline;
    let ctrl = Online.Controller.create g table ~deadline in
    (match Online.Controller.current ctrl with
    | None ->
        Printf.eprintf "infeasible: initial design misses the deadline\n";
        exit 1
    | Some o ->
        Printf.printf "initial design: energy %d, config %s\n"
          o.Online.Controller.cost
          (Sched.Config.to_string o.Online.Controller.config));
    let rng = Workloads.Prng.create (seed lxor 0x5eed) in
    let n = Dfg.Graph.num_nodes g in
    let risks = ref 0 and resolves = ref 0 and infeasible = ref 0 in
    for round = 1 to rounds do
      let node = Workloads.Prng.int rng n in
      let pct = Workloads.Prng.int_in rng 75 250 in
      Online.Controller.scale_node ctrl ~node ~pct;
      if Online.Controller.at_risk ctrl then begin
        incr risks;
        let inc = Online.Controller.resolve ctrl in
        let full = Online.Controller.resolve_scratch ctrl in
        (match (inc, full) with
        | None, None -> incr infeasible
        | Some a, Some b
          when a.Online.Controller.cost = b.Online.Controller.cost
               && a.Online.Controller.assignment = b.Online.Controller.assignment
          ->
            incr resolves
        | Some a, Some b ->
            Printf.eprintf
              "round %d: DIVERGED — incremental cost %d, scratch cost %d\n"
              round a.Online.Controller.cost b.Online.Controller.cost;
            exit 1
        | Some _, None | None, Some _ ->
            Printf.eprintf
              "round %d: DIVERGED — feasibility disagrees (incremental %s, \
               scratch %s)\n"
              round
              (if inc = None then "infeasible" else "feasible")
              (if full = None then "infeasible" else "feasible");
            exit 1)
      end
    done;
    (match Online.Controller.current ctrl with
    | None -> ()
    | Some o ->
        Printf.printf "final design: energy %d, config %s\n"
          o.Online.Controller.cost
          (Sched.Config.to_string o.Online.Controller.config));
    Printf.printf
      "%d round(s): %d at-risk, %d incremental re-solve(s), %d infeasible \
       drift(s)\n"
      rounds !risks !resolves !infeasible;
    print_endline "differential ok"
  in
  Cmd.v
    (Cmd.info "dvfs"
       ~doc:"Online re-solve demo: drift execution times on a DVFS-expanded \
             table, re-solve incrementally when the deadline is at risk, \
             and differentially check against full re-synthesis")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ deadline_arg $ file_arg
          $ levels_arg $ rounds_arg)

let frontier_cmd =
  let csv_arg =
    let doc = "Emit CSV instead of a table." in
    Arg.(value & flag & info [ "csv" ] ~doc)
  in
  let run name seed algo file csv =
    let g, table = instance ~name ~file ~seed in
    let tmin = Core.Synthesis.min_deadline g table in
    let points = Core.Frontier.trace ~algorithm:algo g table ~max_deadline:(tmin * 3) in
    if csv then print_string (Core.Csv.of_frontier points)
    else print_string (Core.Frontier.to_string points)
  in
  Cmd.v
    (Cmd.info "frontier"
       ~doc:"Trace the cost/deadline Pareto frontier up to 3x the minimum deadline")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ algo_arg $ file_arg $ csv_arg)

let netlist_cmd =
  let run name seed =
    let g, table = benchmark ~seed name in
    print_string (Netlist.to_string ~table g)
  in
  Cmd.v
    (Cmd.info "netlist"
       ~doc:"Dump a benchmark (with its seeded time/cost table) as an editable netlist")
    Term.(const run $ benchmark_arg $ seed_arg)

let compile_cmd =
  let outdir_arg =
    let doc = "Output directory for report.txt, schedule.csv, the .sv designs and testbenches, trace.vcd, schedule.svg, graph.dot, frontier.csv." in
    Arg.(value & opt string "hetsched_out" & info [ "output"; "o" ] ~doc)
  in
  let run name seed algo deadline file outdir =
    let g, table = instance ~name ~file ~seed in
    match Flow.compile ?deadline ~algorithm:algo g table ~outdir with
    | None -> print_endline "infeasible: no assignment meets the deadline"; exit 1
    | Some s ->
        Printf.printf
          "compiled: cost %d, makespan %d, config %s, %d registers, %d mux inputs\n"
          s.Flow.cost s.Flow.makespan
          (Sched.Config.to_string s.Flow.config)
          s.Flow.registers s.Flow.mux_inputs;
        List.iter (Printf.printf "  %s\n") s.Flow.files
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Full flow: synthesis + schedule + binding + shared and unshared SystemVerilog into an output directory")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ algo_arg $ deadline_arg $ file_arg $ outdir_arg)

(* Structural RTL: lower the solved schedule to shared-FU SystemVerilog
   through the Rtl.Backend facade, co-simulate the netlist against the
   functional model, and write the module + self-checking testbench. The
   differential is the CI contract: any mismatch is exit 1, which the
   rtl-smoke job greps for. *)
let rtl_cmd =
  let outdir_arg =
    let doc = "Output directory for the .sv module and testbench." in
    Arg.(value & opt string "hetsched_rtl" & info [ "output"; "o" ] ~doc)
  in
  let width_arg =
    let doc = "Datapath bit width." in
    Arg.(value & opt positive_int 16 & info [ "width" ] ~docv:"W" ~doc)
  in
  let iterations_arg =
    let doc = "Co-simulation / testbench iterations." in
    Arg.(value & opt positive_int 4 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let run name seed algo deadline file outdir width iterations =
    let g, table = instance ~name ~file ~seed in
    let deadline = deadline_or_default deadline g table in
    let label = match file with Some p -> p | None -> name in
    match
      (Core.Synthesis.solve
         (Core.Synthesis.request ~algorithm:algo ~deadline g table))
        .Core.Synthesis.result
    with
    | None -> print_endline "infeasible: no assignment meets the deadline"; exit 1
    | Some r ->
        let module_name = Rtl.Ident.sanitize ("hetsched_" ^ Filename.basename label) in
        let resp =
          Rtl.Backend.lower
            (Rtl.Backend.request ~style:Rtl.Backend.Structural ~width
               ~module_name ~testbench_iterations:iterations g table
               r.Core.Synthesis.schedule)
        in
        Printf.printf "%s at T = %d: period %d, config %s\n" label deadline
          resp.Rtl.Backend.period
          (Sched.Config.to_string resp.Rtl.Backend.config);
        Format.printf "%a@." Rtl.Backend.pp_stats resp.Rtl.Backend.stats;
        List.iter
          (fun u ->
            Printf.printf "warning: unsupported op %S on node %d (xor placeholder)\n"
              u.Rtl.Backend.op u.Rtl.Backend.node)
          resp.Rtl.Backend.unsupported;
        (if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755);
        let write fname text =
          let path = Filename.concat outdir fname in
          Out_channel.with_open_text path (fun oc -> output_string oc text);
          Printf.printf "  %s\n" path
        in
        write (module_name ^ ".sv") resp.Rtl.Backend.module_text;
        (match resp.Rtl.Backend.testbench_text with
        | Some tb -> write (module_name ^ "_tb.sv") tb
        | None -> ());
        (match
           Rtl.Sim.differential resp.Rtl.Backend.netlist g ~iterations
             ~input:Rtl.Backend.default_stimulus
         with
        | Ok () ->
            Printf.printf "co-simulation ok: %d iteration(s) match the functional model\n"
              iterations
        | Error detail ->
            Printf.eprintf "co-simulation MISMATCH: %s\n" detail;
            exit 1)
  in
  Cmd.v
    (Cmd.info "rtl"
       ~doc:"Lower the solved schedule to structural shared-FU SystemVerilog \
             (FU instances, operand muxes, left-edge register file) and \
             co-simulate it against the functional model")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ algo_arg $ deadline_arg
          $ file_arg $ outdir_arg $ width_arg $ iterations_arg)

let analyze_cmd =
  let run name seed algo deadline file =
    let g, table = instance ~name ~file ~seed in
    let deadline = deadline_or_default deadline g table in
    match Assign.Solve.dispatch algo g table ~deadline with
    | None -> print_endline "infeasible"; exit 1
    | Some a ->
        Format.printf "%a@."
          (Core.Analysis.pp ~graph:g ~table)
          (Core.Analysis.analyse g table a ~deadline)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Bottleneck report: critical nodes, speed-ups, deadline-safe savings")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ algo_arg $ deadline_arg $ file_arg)

let gantt_cmd =
  let run name seed algo deadline file =
    let g, table = instance ~name ~file ~seed in
    let deadline = deadline_or_default deadline g table in
    match
      (Core.Synthesis.solve
         (Core.Synthesis.request ~algorithm:algo ~deadline g table))
        .Core.Synthesis.result
    with
    | None -> print_endline "infeasible"; exit 1
    | Some r -> print_string (Sched.Gantt.render ~graph:g ~table r.Core.Synthesis.schedule)
  in
  Cmd.v
    (Cmd.info "gantt" ~doc:"Render the bound schedule as an ASCII Gantt chart")
    Term.(const run $ benchmark_opt_arg $ seed_arg $ algo_arg $ deadline_arg $ file_arg)

(* --- serving: shared plumbing for serve / daemon / client ------------- *)

(* [-] or an existing file that is not a directory, so a bad path is a
   usage error naming the flag; [Arg.non_dir_file] alone rejects [-]. *)
let serve_in_arg =
  let input =
    let parse s =
      if s = "-" then Ok s else Arg.conv_parser Arg.non_dir_file s
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let doc = "Read JSONL requests from $(docv) ($(b,-) for stdin)." in
  Arg.(value & opt input "-" & info [ "in"; "i" ] ~docv:"FILE" ~doc)

(* [-] or a non-empty path that is not a directory, in a directory that
   exists, so a bad path is a usage error naming the flag, not a failed
   open. *)
let serve_out_arg =
  let output =
    let parse s =
      let dir = Filename.dirname s in
      if s = "-" then Ok s
      else if s = "" then Error (`Msg "the path is empty")
      else if Sys.file_exists s && Sys.is_directory s then
        Error (`Msg (Printf.sprintf "'%s' is a directory" s))
      else if not (Sys.file_exists dir && Sys.is_directory dir) then
        Error (`Msg (Printf.sprintf "no directory '%s' for '%s'" dir s))
      else Ok s
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let doc = "Write JSONL responses to $(docv) ($(b,-) for stdout)." in
  Arg.(value & opt output "-" & info [ "out"; "o" ] ~docv:"FILE" ~doc)

let serve_domains_arg =
  let doc = "Domain-pool size (default: HETSCHED_DOMAINS)." in
  Arg.(value & opt (some positive_int) None & info [ "domains" ] ~doc)

let cache_entries_arg =
  let doc = "Result-cache capacity ($(b,1) keeps one response)." in
  let env = Cmd.Env.info "HETSCHED_CACHE_ENTRIES" in
  Arg.(value
       & opt positive_int Serve.Cache.default_entries
       & info [ "cache-entries" ] ~env ~doc)

let queue_arg =
  let doc =
    "Answers a wave may owe: the session solves and answers its queued \
     lines once it owes $(docv), whenever its input pauses, and at its \
     end."
  in
  Arg.(value
       & opt positive_int Serve.Daemon.default_queue_capacity
       & info [ "queue" ] ~docv:"N" ~doc)

let with_in path f =
  if path = "-" then f stdin
  else
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

let with_out path f =
  if path = "-" then f stdout
  else
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let rt_capacity_arg =
  let doc =
    "Real-time platform capacity for admit/release lines: an instance \
     count per FU type ($(b,4)) or per-type counts ($(b,2-1-3))."
  in
  let spec =
    let parse s =
      Result.map_error (fun m -> `Msg m) (Rt.Admission.spec_of_string s)
    in
    let print ppf spec =
      Format.pp_print_string ppf (Rt.Admission.spec_to_string spec)
    in
    Arg.conv (parse, print)
  in
  let env = Cmd.Env.info "HETSCHED_RT_CAPACITY" in
  Arg.(value
       & opt spec (Rt.Admission.Uniform Rt.Admission.default_uniform_capacity)
       & info [ "rt-capacity" ] ~env ~docv:"SPEC" ~doc)

(* The pool size is set first: Daemon.create takes Par.Pool.global (). *)
let make_daemon ~domains ~cache_entries ~queue ~capacity =
  Option.iter Par.Pool.set_global_domains domains;
  Serve.Daemon.create ~lookup:Workloads.Catalogue.lookup ~capacity
    ~cache:(Serve.Cache.create ~entries:cache_entries ())
    ~queue_capacity:queue ()

let fmt_ns ns =
  if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

(* end-of-run summary: the operational counters an operator actually scans
   for, one fixed line each, the latency quantiles when anything was
   timed, then any remaining serve.* counters *)
let serve_summary ~served () =
  Printf.eprintf "served %d request(s)\n" served;
  let v name = Option.value (Obs.Counter.value_of name) ~default:0 in
  Printf.eprintf "cache: %d hit(s), %d miss(es), %d eviction(s)\n"
    (v "serve.cache.hit") (v "serve.cache.miss") (v "serve.cache.evict");
  Printf.eprintf "malformed input lines: %d\n" (v "serve.daemon.malformed");
  let h = Serve.Daemon.latency_histogram () in
  if Obs.Histogram.count h > 0 then
    Printf.eprintf "latency: %d timed, mean %s, p50 %s, p90 %s, p99 %s\n"
      (Obs.Histogram.count h)
      (fmt_ns (Obs.Histogram.mean h))
      (fmt_ns (Obs.Histogram.quantile h 0.50))
      (fmt_ns (Obs.Histogram.quantile h 0.90))
      (fmt_ns (Obs.Histogram.quantile h 0.99));
  let admitted = v "serve.rt.admitted"
  and rejected = v "serve.rt.rejected"
  and released = v "serve.rt.released" in
  if admitted + rejected + released > 0 then
    Printf.eprintf
      "admission: %d admitted, %d rejected, %d released, utilization %d%%\n"
      admitted rejected released
      (Option.value
         (Obs.Gauge.value_of "serve.rt.utilization_pct")
         ~default:0);
  let summarised =
    [
      "serve.cache.hit"; "serve.cache.miss"; "serve.cache.evict";
      "serve.daemon.malformed";
      "serve.rt.admitted"; "serve.rt.rejected"; "serve.rt.released";
    ]
  in
  (* zero-valued counters are omitted from the tail: a counter nothing
     bumped in this run says nothing *)
  List.iter
    (fun (name, v) ->
      if
        v > 0
        && String.length name >= 6
        && String.sub name 0 6 = "serve."
        && not (List.mem name summarised)
      then Printf.eprintf "  %s: %d\n" name v)
    (Obs.Counter.snapshot ())

(* serve and admit: the one request loop over the input file's fd, its
   answers written to a buffered channel that is flushed at the end *)
let serve_file ?admission daemon ~input ~output =
  with_in input @@ fun ic ->
  with_out output @@ fun oc ->
  let served =
    Serve.Daemon.serve ?admission daemon ~input:(Unix.descr_of_in_channel ic)
      ~emit:(fun line ->
        output_string oc line;
        output_char oc '\n')
  in
  flush oc;
  served

let serve_cmd =
  let run input output domains cache_entries queue capacity =
    let daemon = make_daemon ~domains ~cache_entries ~queue ~capacity in
    serve_summary ~served:(serve_file daemon ~input ~output) ()
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Batch synthesis service: JSONL requests in, JSONL responses out \
             (content-addressed cache)")
    Term.(const run $ serve_in_arg $ serve_out_arg $ serve_domains_arg
          $ cache_entries_arg $ queue_arg $ rt_capacity_arg)

let socket_arg =
  let doc =
    "Unix-domain socket path ($(b,-) for a stdin/stdout streaming session)."
  in
  Arg.(value & opt string "-" & info [ "socket"; "s" ] ~docv:"PATH" ~doc)

let daemon_cmd =
  let connections_arg =
    let doc = "Exit after $(docv) connections (default: accept forever)." in
    Arg.(value & opt (some positive_int) None
         & info [ "connections" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let positive_float =
      let parse s =
        match float_of_string_opt s with
        | Some f when Float.is_finite f && f > 0.0 -> Ok f
        | _ -> Error (`Msg (Printf.sprintf "%S is not a positive number" s))
      in
      Arg.conv (parse, Format.pp_print_float)
    in
    let doc =
      "Close a connection after $(docv) seconds without a complete line \
       while nothing is in flight (default: never)."
    in
    let env = Cmd.Env.info "HETSCHED_IDLE_TIMEOUT" in
    Arg.(value & opt (some positive_float) None
         & info [ "idle-timeout" ] ~env ~docv:"SECONDS" ~doc)
  in
  let run socket connections domains cache_entries queue capacity
      idle_timeout =
    let daemon = make_daemon ~domains ~cache_entries ~queue ~capacity in
    let served =
      if socket = "-" then
        Serve.Daemon.serve_fd ?idle_timeout daemon ~input:Unix.stdin
          ~output:Unix.stdout
      else Serve.Daemon.listen ?connections ?idle_timeout daemon ~path:socket ()
    in
    serve_summary ~served ()
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Always-on synthesis daemon: streaming JSONL admission over a \
             Unix-domain socket (or stdio), p50/p90/p99 latency summary")
    Term.(const run $ socket_arg $ connections_arg $ serve_domains_arg
          $ cache_entries_arg $ queue_arg $ rt_capacity_arg $ idle_timeout_arg)

let client_cmd =
  (* A daemon's socket: a path that exists. [-] is the daemon's stdio
     session, which a client cannot reach. *)
  let socket_arg =
    let socket =
      let parse s =
        if s = "-" then Error (`Msg "'-' is not a daemon socket")
        else Arg.conv_parser Arg.file s
      in
      Arg.conv (parse, Format.pp_print_string)
    in
    let doc = "Unix-domain socket of a running daemon." in
    Arg.(required & opt (some socket) None
         & info [ "socket"; "s" ] ~docv:"PATH" ~doc)
  in
  let run input output socket =
    match
      with_in input @@ fun input ->
      with_out output @@ fun output ->
      Serve.Daemon.call ~path:socket ~input ~output
    with
    | received -> Printf.eprintf "received %d response line(s)\n" received
    | exception Unix.Unix_error (err, fn, _) ->
        Printf.eprintf "hetsched client: %s: %s: %s\n" socket fn
          (Unix.error_message err);
        exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Stream JSONL requests to a running hetsched daemon and copy \
             the response lines back")
    (* A bad --in or --out is reported before a missing --socket *)
    Term.(const run $ serve_in_arg $ serve_out_arg $ socket_arg)

let admit_cmd =
  let no_verify_arg =
    let doc =
      "Skip the hyperperiod certificate (simulate every admitted task over \
       one hyperperiod and replay the light jobs on the shared pool)."
    in
    Arg.(value & flag & info [ "no-verify" ] ~doc)
  in
  let run input output capacity no_verify =
    let adm = Rt.Admission.create ~capacity () in
    let daemon = Serve.Daemon.create ~lookup:Workloads.Catalogue.lookup () in
    ignore (serve_file ~admission:adm daemon ~input ~output);
    let entries = Rt.Admission.admitted adm in
    Printf.eprintf "admitted %d task(s), utilization %.3f\n"
      (List.length entries)
      (Rt.Admission.utilization adm);
    List.iter
      (fun (e : Rt.Admission.admitted) ->
        Format.eprintf "  %s: %a, response %d@." e.Rt.Admission.id
          Rt.Task.pp_analysed e.Rt.Admission.analysed
          e.Rt.Admission.response_time)
      entries;
    if not no_verify then begin
      let cert = Rt.Sim.run adm in
      Format.eprintf "certificate: %a@." Rt.Sim.pp cert;
      if not (Rt.Sim.ok cert) then begin
        Printf.eprintf "certificate FAILED: an admitted task set missed\n";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "admit"
       ~doc:"Periodic admission control: JSONL admit/release lines in, \
             admitted/rejected verdict lines out, then prove the admitted \
             set deadline-miss-free over one hyperperiod")
    Term.(const run $ serve_in_arg $ serve_out_arg $ rt_capacity_arg
          $ no_verify_arg)

let csv_cmd =
  let which =
    Arg.(required & pos 0 (some (enum [ ("table1", `T1); ("table2", `T2) ])) None
         & info [] ~docv:"TABLE" ~doc:"table1 or table2")
  in
  let run which =
    let reports =
      match which with
      | `T1 -> Core.Experiments.table1 ()
      | `T2 -> Core.Experiments.table2 ()
    in
    print_string (Core.Csv.of_reports reports)
  in
  Cmd.v (Cmd.info "csv" ~doc:"Emit Table 1 or Table 2 as CSV") Term.(const run $ which)

let () =
  let info =
    Cmd.info "hetsched"
      ~doc:"Heterogeneous FU assignment and scheduling for real-time DSP"
  in
  exit (Cmd.eval (Cmd.group info [ list_cmd; show_cmd; dot_cmd; synth_cmd; frontier_cmd; netlist_cmd; csv_cmd; compile_cmd; rtl_cmd; gantt_cmd; analyze_cmd; serve_cmd; daemon_cmd; client_cmd; admit_cmd; dvfs_cmd ]))
