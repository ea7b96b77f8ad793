(** The RTL back end behind one door.

    [lower : request -> response] mirrors {!Core.Synthesis.solve}'s
    request/response style: everything the lowering needs is a field of
    the request (style, data width, module name, testbench/VCD iteration
    counts, stimulus), and everything it produces comes back in one
    response (artifact texts, the netlist IR, interconnect statistics,
    and the structured [unsupported] report — emission still succeeds
    with the documented XOR placeholder, but the response says so per
    node). [summarize : request -> summary] is the same lowering for a
    caller that only needs to identify the artifacts: MD5 digests of the
    module and testbench texts in place of the texts, and no netlist.

    There is one lowering path: {!Netlist_ir.build}, then {!Sv} for the
    module and testbench and {!Vcd} for the trace. The style only chooses
    the FU binding, i.e. which end of the paper's Figure-3 trade-off the
    hardware takes:
    - [Structural]: the resource-shared machine under
      {!Sched.Binding.bind} — one instance per FU the schedule needs at
      its peak, with operand muxes in front of shared instances.
    - [Unshared]: {!Sched.Binding.unshared} — one FU instance per
      operation, so every instance fires once per period.

    Both share the left-edge register file
    ([stats.registers = Sched.Registers.max_live]) and history registers
    for delay edges, and both co-simulate with {!Sim}. *)

type style = Unshared | Structural

type request = private {
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  schedule : Sched.Schedule.t;
  style : style;
  width : int;
  module_name : string;  (** sanitized by the smart constructor *)
  testbench_iterations : int;  (** 0 suppresses the testbench *)
  vcd_iterations : int;  (** 0 suppresses the VCD trace *)
  stimulus : int -> int -> int;  (** input node -> iteration -> value *)
}

(** The stimulus used when none is given: [(((v + 1) * 3) + i) land 7] —
    small values, so [comp] never meets the unsigned-compare caveat. *)
val default_stimulus : int -> int -> int

(** Smart constructor; defaults: [Structural], width 16, module name
    ["hetsched"], 4 testbench iterations, no VCD, {!default_stimulus}.
    Raises [Invalid_argument] on a non-positive width or negative
    iteration counts. *)
val request :
  ?style:style ->
  ?width:int ->
  ?module_name:string ->
  ?testbench_iterations:int ->
  ?vcd_iterations:int ->
  ?stimulus:(int -> int -> int) ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  request

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

(** Deterministic; never raises on a valid request over a valid
    schedule. *)
val lower : request -> response

(** What the serving path keeps of a lowering: the digests identify the
    texts {!lower} returns for the same request byte for byte
    ([module_digest = Digest.string module_text], [testbench_digest =
    Option.map Digest.string testbench_text]), and [period], [stats] and
    [unsupported] equal {!lower}'s. *)
type summary = {
  module_digest : Digest.t;
  testbench_digest : Digest.t option;
  period : int;
  stats : Netlist_ir.stats;
  unsupported : unsupported list;
}

(** [summarize req] builds the netlist once and digests the module and
    testbench texts in {!Sv}'s per-domain buffer, so no text is copied
    out; the request's VCD iteration count is ignored. Deterministic;
    never raises on a valid request over a valid schedule. *)
val summarize : request -> summary

val pp_stats : Format.formatter -> Netlist_ir.stats -> unit
