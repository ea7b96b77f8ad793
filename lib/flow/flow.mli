(** End-to-end compilation: netlist in, reports + RTL out.

    Runs the full two-phase synthesis on an instance and writes a small
    output directory — the artefacts a user of an HLS tool expects:

    - [report.txt] — assignment, schedule, configuration, per-FU timelines,
      register bound, interconnect statistics of both designs;
    - [schedule.csv] — one row per operation (start, finish, FU, operands);
    - [datapath.sv] — SystemVerilog of the shared machine: FU instances
      under the left-edge binding, operand muxes, left-edge register file
      ({!Rtl.Backend}, style [Structural]);
    - [datapath_unshared.sv] — the same lowering with one FU instance per
      operation (style [Unshared], module [hetsched_datapath_unshared], so
      both designs compile in one simulator run);
    - [datapath_tb.sv] / [datapath_unshared_tb.sv] — self-checking
      testbenches for both (golden values from the {!Dfg.Interp}
      functional model);
    - [trace.vcd] — a two-iteration waveform of the shared machine (step
      counter, per-FU busy bits, per-operation activity) for any VCD
      viewer;
    - [schedule.svg] — a figure-quality Gantt chart of the bound schedule;
    - [graph.dot] — the DFG annotated with the chosen FU types;
    - [frontier.csv] — the cost/deadline staircase up to the chosen
      deadline. *)

type summary = {
  outdir : string;
  cost : int;
  makespan : int;
  config : Sched.Config.t;
  registers : int;
  mux_inputs : int;
  files : string list;  (** paths written, in the order above *)
}

(** [compile ?algorithm ?deadline g table ~outdir] (algorithm defaults to
    [Repeat], deadline to {!Core.Synthesis.default_deadline}, 1.2x the
    minimum rounded up). Creates [outdir] if needed.
    [None] when the deadline is infeasible. *)
val compile :
  ?algorithm:Core.Synthesis.algorithm ->
  ?deadline:int ->
  Dfg.Graph.t ->
  Fulib.Table.t ->
  outdir:string ->
  summary option
