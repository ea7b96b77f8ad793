type style = Unshared | Structural

type request = {
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  schedule : Sched.Schedule.t;
  style : style;
  width : int;
  module_name : string;
  testbench_iterations : int;
  vcd_iterations : int;
  stimulus : int -> int -> int;
}

let default_stimulus v i = (((v + 1) * 3) + i) land 7

let request ?(style = Structural) ?(width = 16) ?(module_name = "hetsched")
    ?(testbench_iterations = 4) ?(vcd_iterations = 0)
    ?(stimulus = default_stimulus) graph table schedule =
  if width < 1 then invalid_arg "Backend.request: width < 1";
  if testbench_iterations < 0 then
    invalid_arg "Backend.request: testbench_iterations < 0";
  if vcd_iterations < 0 then invalid_arg "Backend.request: vcd_iterations < 0";
  {
    graph;
    table;
    schedule;
    style;
    width;
    module_name = Ident.sanitize module_name;
    testbench_iterations;
    vcd_iterations;
    stimulus;
  }

type unsupported = { node : int; op : string }

type response = {
  style : style;
  module_text : string;
  testbench_text : string option;
  vcd_text : string option;
  netlist : Netlist_ir.t;
  stats : Netlist_ir.stats;
  period : int;
  config : Sched.Config.t;
  unsupported : unsupported list;
}

let lower req =
  let { graph = g; table; schedule = s; _ } = req in
  let binding =
    match req.style with
    | Structural -> Sched.Binding.bind table s
    | Unshared -> Sched.Binding.unshared table s
  in
  let nl =
    Netlist_ir.build ~module_name:req.module_name ~width:req.width ~binding g
      table s
  in
  let testbench_text =
    if req.testbench_iterations = 0 then None
    else
      Some
        (Sv.emit_testbench nl g ~iterations:req.testbench_iterations
           ~input:req.stimulus)
  in
  let vcd_text =
    if req.vcd_iterations = 0 then None
    else Some (Vcd.trace ~iterations:req.vcd_iterations nl)
  in
  {
    style = req.style;
    module_text = Sv.emit_module nl;
    testbench_text;
    vcd_text;
    netlist = nl;
    stats = Netlist_ir.stats nl;
    period = nl.Netlist_ir.period;
    config = nl.Netlist_ir.config;
    unsupported =
      List.map (fun (node, op) -> { node; op }) nl.Netlist_ir.unsupported;
  }

let pp_stats ppf (st : Netlist_ir.stats) =
  Format.fprintf ppf
    "@[<v>fu instances:   %d@,\
     registers:      %d (left-edge shared file)@,\
     output holds:   %d@,\
     history regs:   %d@,\
     muxes:          %d (total fan-in %d)@,\
     data nets:      %d@,\
     unsupported:    %d@]"
    st.Netlist_ir.fu_instances st.Netlist_ir.registers
    st.Netlist_ir.out_hold_regs st.Netlist_ir.history_regs
    st.Netlist_ir.mux_count st.Netlist_ir.mux_inputs st.Netlist_ir.wires
    st.Netlist_ir.unsupported_ops
