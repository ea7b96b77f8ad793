(** SystemVerilog emission of a structural netlist.

    {!emit_module} renders one synthesizable file: the top module (FSM
    step counter, operand muxes as per-step [always_comb] cases, shared
    register file with decoded write strobes, history shift chains,
    output hold registers) followed by one submodule per FU instance
    (operand + class-select latches, combinational result over the
    instance's (op, arity) classes). Net names derive from {!Ident}, so
    they are collision-free and stable between module and testbench.

    {!emit_testbench} renders the self-checking bench: drive inputs, run
    one period per iteration, compare outputs against {!Dfg.Interp}
    masked to the width, print [TESTBENCH PASSED] /
    [TESTBENCH FAILED: n errors], and [$finish]. Verilog compares are
    unsigned, so [comp] can disagree with the interpreter's signed
    compare under stimulus that wraps the signed range. *)

val emit_module : Netlist_ir.t -> string

val emit_testbench :
  Netlist_ir.t ->
  Dfg.Graph.t ->
  iterations:int ->
  input:(int -> int -> int) ->
  string
