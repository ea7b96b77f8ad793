type summary = {
  outdir : string;
  cost : int;
  makespan : int;
  config : Sched.Config.t;
  registers : int;
  mux_inputs : int;
  files : string list;
}

let write path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

let schedule_csv g table r =
  let lib = Fulib.Table.library table in
  let binding = Sched.Binding.bind table r.Core.Synthesis.schedule in
  let header = [ "node"; "op"; "fu_type"; "fu_instance"; "start"; "finish"; "operands" ] in
  let rows =
    List.init (Dfg.Graph.num_nodes g) (fun v ->
        let t = r.Core.Synthesis.assignment.(v) in
        let start = r.Core.Synthesis.schedule.Sched.Schedule.start.(v) in
        [
          Dfg.Graph.name g v;
          Dfg.Graph.op g v;
          Fulib.Library.type_name lib t;
          string_of_int binding.Sched.Binding.instance.(v);
          string_of_int start;
          string_of_int (start + Fulib.Table.time table ~node:v ~ftype:t);
          String.concat " "
            (List.map (fun (p, _) -> Dfg.Graph.name g p) (Dfg.Graph.preds g v));
        ])
  in
  Core.Csv.render ~header rows

let compile ?(algorithm = Core.Synthesis.Repeat) ?deadline g table ~outdir =
  let deadline =
    match deadline with
    | Some t -> t
    | None -> Core.Synthesis.default_deadline g table
  in
  match
    (Core.Synthesis.solve
       (Core.Synthesis.request ~algorithm ~deadline g table))
      .Core.Synthesis.result
  with
  | None -> None
  | Some r ->
      mkdir_p outdir;
      let stimulus v i = ((v + 1) * 3) + (i land 7) in
      let lower style module_name ~vcd_iterations =
        Rtl.Backend.lower
          (Rtl.Backend.request ~style ~module_name ~testbench_iterations:4
             ~vcd_iterations ~stimulus g table r.Core.Synthesis.schedule)
      in
      let structural =
        lower Rtl.Backend.Structural "hetsched_datapath" ~vcd_iterations:2
      in
      let unshared =
        lower Rtl.Backend.Unshared "hetsched_datapath_unshared"
          ~vcd_iterations:0
      in
      let registers =
        Sched.Registers.max_live g table r.Core.Synthesis.schedule
      in
      let file name = Filename.concat outdir name in
      let write_opt name = Option.iter (write (file name)) in
      let stats = structural.Rtl.Backend.stats in
      let report =
        Format.asprintf
          "%a@.@.interconnect: %d muxes, %d total mux inputs@.structural: %a@.\
           unshared: %a@."
          (Core.Synthesis.pp_result ~graph:g ~table)
          r stats.Rtl.Netlist_ir.mux_count stats.Rtl.Netlist_ir.mux_inputs
          Rtl.Backend.pp_stats stats Rtl.Backend.pp_stats
          unshared.Rtl.Backend.stats
      in
      write (file "report.txt") report;
      write (file "schedule.csv") (schedule_csv g table r);
      write (file "datapath.sv") structural.Rtl.Backend.module_text;
      write (file "datapath_unshared.sv") unshared.Rtl.Backend.module_text;
      write_opt "trace.vcd" structural.Rtl.Backend.vcd_text;
      write (file "schedule.svg")
        (Rtl.Svg_gantt.render ~graph:g ~table r.Core.Synthesis.schedule);
      write_opt "datapath_tb.sv" structural.Rtl.Backend.testbench_text;
      write_opt "datapath_unshared_tb.sv" unshared.Rtl.Backend.testbench_text;
      let label v =
        Fulib.Library.type_name (Fulib.Table.library table)
          r.Core.Synthesis.assignment.(v)
      in
      write (file "graph.dot") (Dfg.Dot.to_dot ~label g);
      let frontier = Core.Frontier.trace ~algorithm g table ~max_deadline:deadline in
      write (file "frontier.csv") (Core.Csv.of_frontier frontier);
      Some
        {
          outdir;
          cost = r.Core.Synthesis.cost;
          makespan = r.Core.Synthesis.makespan;
          config = r.Core.Synthesis.config;
          registers;
          mux_inputs = stats.Rtl.Netlist_ir.mux_inputs;
          files =
            List.map file
              [
                "report.txt"; "schedule.csv"; "datapath.sv";
                "datapath_unshared.sv"; "datapath_tb.sv";
                "datapath_unshared_tb.sv"; "trace.vcd";
                "schedule.svg"; "graph.dot"; "frontier.csv";
              ];
        }

let compile_file ?algorithm ?deadline ?(seed = 42) ~outdir path =
  let g, table = Netlist.load ~path in
  let table =
    match table with
    | Some t -> t
    | None ->
        let rng = Workloads.Prng.create seed in
        Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 g
  in
  compile ?algorithm ?deadline g table ~outdir
