(** Netlist IR: the hardware for a bound schedule.

    This is the one RTL representation; {!Sv} emits it, {!Sim} executes
    it and {!Vcd} traces it. It is the machine the paper's Figure-3
    trade-off describes: one module instance per FU the binding uses,
    operand multiplexers in front of each FU port, a register file sized
    and shared exactly by {!Sched.Registers.allocate} (left-edge,
    [reg_count = max_live]), and the DFG's delay edges as per-iteration
    history registers advanced at the period boundary. An FSM (the
    modulo-period step counter) decodes per-step latch enables,
    operand-mux selects, and register-file write strobes. The binding
    decides how much is shared: {!Sched.Binding.bind} packs operations
    onto as few instances as the schedule allows, while
    {!Sched.Binding.unshared} gives each operation an instance of its own.

    Cycle contract (shared with {!Sim} and the {!Sv} emitter; everything
    is posedge flip-flops reading pre-edge state):
    - consumer [v] latches its operands inside its FU on the edge ending
      step [start v - 1] — wrapping to the period boundary for start-0
      nodes, whose operands are necessarily delayed;
    - producer [u]'s value is written to its register on the edge ending
      step [finish u - 1]; a consumer latching on that same edge reads
      the FU result bus instead (write-first forwarding), including the
      modulo case [finish u = period] feeding a start-0 consumer;
    - a [d]-delay operand reads history register [d] ([d - 1] for start-0
      consumers, whose latch edge coincides with the shift: depth 1 reads
      the register file or the forwarded bus);
    - an output finishing exactly at the period end has an empty shared
      lifetime, so it gets a dedicated hold register loaded at the
      boundary; all other outputs read the register file.

    Reset zeroes all state, which reproduces {!Dfg.Interp}'s zero initial
    delayed-edge values (every FU class yields 0 on all-zero operands). *)

(** Where a latch, register-file write, or history feed takes its value
    from on a given clock edge. *)
type source =
  | Input of int  (** external input port of the given source node *)
  | Register of int  (** register-file entry (pre-edge value) *)
  | History of int * int  (** value of node [v] from [d] iterations back *)
  | Fu_bus of int  (** combinational result bus of a flat FU instance *)

type opclass = { op : string; arity : int }
(** One operation class an FU instance must implement. *)

type activation = {
  node : int;
  cls : int;  (** index into the owning FU's [classes] *)
  latch_step : int;  (** edge ending this step latches operands + class *)
  operands : source array;  (** per port, in {!Dfg.Graph.preds} order *)
  start : int;
  finish : int;
}

type fu = {
  id : int;  (** flat instance id, type-major *)
  fu_type : int;
  instance : int;  (** index within the type *)
  ports : int;  (** max class arity (0 for instances binding only inputs) *)
  classes : opclass array;
  activations : activation array;  (** sorted by start step *)
}

type write = {
  reg : int;
  step : int;  (** the edge ending this step performs the write *)
  source : source;
  wnode : int;  (** producing node, for comments and traceability *)
}

type history = {
  hnode : int;
  depth : int;  (** registers in the shift chain = max delay out of [hnode] *)
  feed : source;  (** what the chain head loads at the period boundary *)
}

type output = {
  onode : int;
  signal : string;
  hold : source option;
      (** [Some src]: dedicated hold register loaded from [src] at the
          boundary; [None]: the port reads the register file *)
}

type t = {
  module_name : string;
  width : int;
  period : int;
  config : Sched.Config.t;
  type_names : string array;  (** sanitized FU type names, for net names *)
  names : string array;  (** collision-free sanitized node names *)
  node_ops : string array;
  fus : fu array;
  fu_of_node : int array;  (** node -> flat FU id; -1 for input nodes *)
  reg_of_node : int array;  (** node -> register; -1 if never stored *)
  reg_count : int;  (** = {!Sched.Registers.max_live} *)
  writes : write array;  (** sorted by (step, reg) *)
  histories : history array;
  inputs : (int * string) list;  (** (node, signal) per external input *)
  outputs : output list;
  unsupported : (int * string) list;
      (** compute nodes whose op has no hardware mapping (lowered to an
          XOR-fold placeholder, matching {!Dfg.Interp.apply}) *)
}

(** [build ?module_name ?width ?binding g table s] lowers a valid
    schedule under [binding] (default {!Sched.Binding.bind}, which must be
    valid for [s]). Raises [Invalid_argument] on [width < 1]. *)
val build :
  ?module_name:string ->
  ?width:int ->
  ?binding:Sched.Binding.t ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  Sched.Schedule.t ->
  t

type stats = {
  fu_instances : int;
  registers : int;  (** shared file = [max_live] *)
  out_hold_regs : int;
  history_regs : int;
  mux_count : int;  (** FU-port + register-file muxes with fan-in >= 2 *)
  mux_inputs : int;  (** total fan-in across those muxes *)
  wires : int;  (** W-bit data nets: buses, ports, registers, IO *)
  unsupported_ops : int;
}

val stats : t -> stats
