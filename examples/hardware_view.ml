(* The hardware engineer's view of a synthesis result: Gantt chart of the
   bound schedule, register demand, interconnect statistics, and the effect
   of a pipelined multiplier class.

   Run with: dune exec examples/hardware_view.exe *)

let () =
  let graph = Workloads.Filters.diffeq () in
  let rng = Workloads.Prng.create 2027 in
  let table = Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 graph in
  let deadline = Core.Synthesis.min_deadline graph table + 4 in
  match
    (Core.Synthesis.solve
       (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
          graph table))
      .Core.Synthesis.result
  with
  | None -> print_endline "infeasible"
  | Some r ->
      Printf.printf "diffeq at T = %d: cost %d, config %s\n\n" deadline
        r.Core.Synthesis.cost
        (Sched.Config.to_string r.Core.Synthesis.config);
      print_endline "Gantt (rows = FU instances, columns = control steps):";
      print_string (Sched.Gantt.render ~graph ~table r.Core.Synthesis.schedule);
      let registers = Sched.Registers.max_live graph table r.Core.Synthesis.schedule in
      let lowered =
        Rtl.Backend.lower
          (Rtl.Backend.request ~testbench_iterations:0 graph table
             r.Core.Synthesis.schedule)
      in
      let st = lowered.Rtl.Backend.stats in
      Printf.printf
        "\nregisters: %d (left-edge shared)   interconnect: %d muxes, %d inputs\n"
        registers st.Rtl.Netlist_ir.mux_count st.Rtl.Netlist_ir.mux_inputs;
      Printf.printf "structural RTL: %d FU instances, %d data nets\n"
        st.Rtl.Netlist_ir.fu_instances st.Rtl.Netlist_ir.wires;
      (* pipelined multipliers: P1 as a pipelined class *)
      let pipelined t = t = 0 in
      match
        Sched.Min_resource.run ~pipelined graph table
          r.Core.Synthesis.assignment ~deadline
      with
      | Some { Sched.Min_resource.config; _ } ->
          Printf.printf
            "\nwith a pipelined (II = 1) P1 class, the same assignment fits %s\n"
            (Sched.Config.to_string config)
      | None -> ()
