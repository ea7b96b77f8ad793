(** SystemVerilog emission of a structural netlist.

    {!emit_module} renders one synthesizable file: the top module (FSM
    step counter, operand muxes as per-step [always_comb] cases, shared
    register file with decoded write strobes, history shift chains,
    output hold registers) followed by one submodule per FU instance
    (operand + class-select latches, combinational result over the
    instance's (op, arity) classes). Net names derive from {!Ident}, so
    they are collision-free and stable between module and testbench.

    {!testbench} renders the self-checking bench: drive inputs, run
    one period per iteration, compare outputs against {!Dfg.Interp}
    masked to the width, print [TESTBENCH PASSED] /
    [TESTBENCH FAILED: n errors], and [$finish]. Verilog compares are
    unsigned, so [comp] can disagree with the interpreter's signed
    compare under stimulus that wraps the signed range.

    Both write into one byte buffer per domain, reused by every emission
    on that domain (a buffer that grew past 1 MiB is replaced after use),
    and hand back either a copy of the text or its MD5 digest: the
    {!finish} is applied before the emission returns, so the buffer never
    escapes. Emission writes literals and integers directly, with no
    format strings, and is safe to run on several domains at once. *)

(** What an emission returns, taken from the buffer's bytes before the
    next emission on the same domain can reuse it. *)
type 'a finish

(** A fresh copy of the text. *)
val text : string finish

(** [Digest.string] of the text, computed in place without copying it. *)
val digest : Digest.t finish

(** [module_ finish stats nl] is the module file of [nl], whose
    [Netlist_ir.stats] the caller has already computed as [stats]; the
    header comment prints them. *)
val module_ : 'a finish -> Netlist_ir.stats -> Netlist_ir.t -> 'a

(** [emit_module nl] is [module_ text (Netlist_ir.stats nl) nl]. *)
val emit_module : Netlist_ir.t -> string

(** [testbench finish nl g ~iterations ~input] is the self-checking bench
    over [iterations] periods (at least 1) of stimulus [input]
    (input node -> iteration -> value; the golden model reads it too, so
    it must be a function of its arguments). Raises [Invalid_argument]
    when [iterations < 1]. *)
val testbench :
  'a finish ->
  Netlist_ir.t ->
  Dfg.Graph.t ->
  iterations:int ->
  input:(int -> int -> int) ->
  'a
