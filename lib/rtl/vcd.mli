(** Value-change-dump (VCD) traces of a netlist's execution.

    Renders the waveform a hardware engineer would inspect for the machine
    {!Sv} emits from the same {!Netlist_ir.t}: the FSM step counter, one
    busy bit per FU instance (high while one of its activations runs) and
    one activity bit per compute node, over a given number of iterations
    of the static schedule. Input nodes are ports rather than operations
    of the machine, so they get no bit. Any VCD viewer (GTKWave etc.)
    opens the output.

    Timescale is one time unit per control step; iteration [i] starts at
    [i * period]. *)

(** [trace ?iterations nl] renders the VCD text ([iterations] defaults
    to 2). Raises [Invalid_argument] on a non-positive period or
    iteration count. *)
val trace : ?iterations:int -> Netlist_ir.t -> string
