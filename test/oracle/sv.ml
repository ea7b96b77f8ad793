(* The Printf-based SystemVerilog emitters that [Rtl.Sv] replaced, kept
   whole as its differential oracle: one [Printf.ksprintf] per line into a
   fresh [Buffer.t]. [Rtl.Sv.emit_module] and [Rtl.Sv.emit_testbench] must
   return these bytes exactly. *)

open Rtl.Netlist_ir

let fu_base nl fu =
  Printf.sprintf "fu_%s_%d" nl.type_names.(fu.fu_type) fu.instance

let bus_name nl f = fu_base nl nl.fus.(f) ^ "_y"

let source_expr nl = function
  | Input v -> "in_" ^ nl.names.(v)
  | Register r -> Printf.sprintf "rf_%d" r
  | History (v, d) -> Printf.sprintf "h_%s_%d" nl.names.(v) d
  | Fu_bus f -> bus_name nl f

let bits n =
  let rec go n acc = if n <= 1 then max acc 1 else go (n / 2) (acc + 1) in
  go (max n 2 - 1) 1

(* the expression an FU class computes over its latched operands, mirroring
   Dfg.Interp.apply; unsupported ops fold with xor (documented placeholder,
   reported through Netlist_ir.unsupported) *)
let class_expr c =
  let l i = Printf.sprintf "l%d" i in
  let operands = List.init c.arity l in
  let fold op = String.concat (Printf.sprintf " %s " op) operands in
  match (c.op, operands) with
  | _, [] -> "0"
  | "add", _ -> fold "+"
  | "sub", _ -> fold "-"
  | "mul", _ -> fold "*"
  | "comp", [ _ ] -> "0"
  | "comp", x :: rest ->
      let rec min_expr = function
        | [ e ] -> e
        | e :: tl ->
            let m = min_expr tl in
            Printf.sprintf "((%s < %s) ? %s : %s)" e m e m
        | [] -> assert false
      in
      Printf.sprintf "(%s < %s) ? 1 : 0" x (min_expr rest)
  | _, _ -> fold "^"

let emit_module nl =
  let buf = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let st = stats nl in
  add "// Generated by hetsched: structural datapath, period %d\n" nl.period;
  add "// FU configuration: %s (%d instances); register file: %d (left-edge)\n"
    (Sched.Config.to_string nl.config)
    st.fu_instances st.registers;
  add "// muxes: %d (fan-in %d); history regs: %d; output holds: %d\n"
    st.mux_count st.mux_inputs st.history_regs st.out_hold_regs;
  List.iter
    (fun (v, op) ->
      add "// UNSUPPORTED op %S on node %s: lowered to xor placeholder\n" op
        nl.names.(v))
    nl.unsupported;
  add "module %s #(parameter W = %d) (\n" nl.module_name nl.width;
  add "  input logic clk,\n  input logic rst";
  List.iter (fun (_, sig_) -> add ",\n  input logic [W-1:0] in_%s" sig_)
    nl.inputs;
  List.iter (fun o -> add ",\n  output logic [W-1:0] out_%s" o.signal)
    nl.outputs;
  add "\n);\n\n";
  (* FSM: free-running modulo-period control-step counter *)
  add "  logic [%d:0] step;\n" (bits nl.period - 1);
  add "  always_ff @(posedge clk) begin\n";
  add "    if (rst) step <= 0;\n";
  add "    else step <= (step == %d) ? 0 : step + 1;\n" (nl.period - 1);
  add "  end\n\n";
  if nl.reg_count > 0 then begin
    add "  // shared register file (left-edge allocation)\n";
    for r = 0 to nl.reg_count - 1 do
      add "  logic [W-1:0] rf_%d;\n" r
    done;
    add "\n"
  end;
  Array.iter
    (fun h ->
      for d = 1 to h.depth do
        add "  logic [W-1:0] h_%s_%d; // %s, %d iteration(s) back\n"
          nl.names.(h.hnode) d nl.names.(h.hnode) d
      done)
    nl.histories;
  if Array.length nl.histories > 0 then add "\n";
  (* per-FU nets, control decode, and instantiation *)
  Array.iter
    (fun fu ->
      let base = fu_base nl fu in
      add "  // FU %s[%d]: %d op class(es), %d activation(s)\n"
        nl.type_names.(fu.fu_type) fu.instance
        (Array.length fu.classes)
        (Array.length fu.activations);
      add "  logic [W-1:0] %s_y;\n" base;
      for p = 0 to fu.ports - 1 do
        add "  logic [W-1:0] %s_p%d;\n" base p
      done;
      if Array.length fu.activations > 0 then begin
        add "  logic %s_le;\n" base;
        add "  assign %s_le = %s;\n" base
          (String.concat " || "
             (Array.to_list fu.activations
             |> List.map (fun a -> Printf.sprintf "(step == %d)" a.latch_step)
             ));
        (* operand muxes: one case per latch step *)
        for p = 0 to fu.ports - 1 do
          let cases =
            Array.to_list fu.activations
            |> List.filter_map (fun a ->
                   if p < Array.length a.operands then
                     Some (a.latch_step, source_expr nl a.operands.(p))
                   else None)
          in
          add "  always_comb begin\n    case (step)\n";
          List.iter
            (fun (stp, e) -> add "      %d: %s_p%d = %s;\n" stp base p e)
            cases;
          add "      default: %s_p%d = %s;\n" base p
            (match cases with (_, e) :: _ -> e | [] -> "0");
          add "    endcase\n  end\n"
        done;
        if Array.length fu.classes >= 2 then begin
          let selw = bits (Array.length fu.classes) in
          add "  logic [%d:0] %s_sel;\n" (selw - 1) base;
          add "  always_comb begin\n    case (step)\n";
          Array.iter
            (fun a -> add "      %d: %s_sel = %d;\n" a.latch_step base a.cls)
            fu.activations;
          add "      default: %s_sel = 0;\n" base;
          add "    endcase\n  end\n"
        end
      end;
      add "  %s_%s #(.W(W)) u_%s (\n    .clk(clk), .rst(rst)" nl.module_name
        base base;
      if Array.length fu.activations > 0 then begin
        add ", .le(%s_le)" base;
        if Array.length fu.classes >= 2 then add ", .sel(%s_sel)" base
      end;
      for p = 0 to fu.ports - 1 do
        add ",\n    .p%d(%s_p%d)" p base p
      done;
      add ",\n    .y(%s_y)\n  );\n\n" base)
    nl.fus;
  (* register-file write strobes, decoded per step *)
  for r = 0 to nl.reg_count - 1 do
    let mine =
      Array.to_list nl.writes |> List.filter (fun w -> w.reg = r)
    in
    add "  always_ff @(posedge clk) begin\n";
    add "    if (rst) rf_%d <= 0;\n" r;
    List.iter
      (fun w ->
        add "    else if (step == %d) rf_%d <= %s; // %s\n" w.step r
          (source_expr nl w.source) nl.names.(w.wnode))
      mine;
    add "  end\n"
  done;
  if Array.length nl.histories > 0 then begin
    add "\n  // inter-iteration history, advanced at the period boundary\n";
    add "  always_ff @(posedge clk) begin\n";
    add "    if (rst) begin\n";
    Array.iter
      (fun h ->
        for d = 1 to h.depth do
          add "      h_%s_%d <= 0;\n" nl.names.(h.hnode) d
        done)
      nl.histories;
    add "    end else if (step == %d) begin\n" (nl.period - 1);
    Array.iter
      (fun h ->
        add "      h_%s_1 <= %s;\n" nl.names.(h.hnode) (source_expr nl h.feed);
        for d = 2 to h.depth do
          add "      h_%s_%d <= h_%s_%d;\n" nl.names.(h.hnode) d
            nl.names.(h.hnode) (d - 1)
        done)
      nl.histories;
    add "    end\n  end\n"
  end;
  add "\n";
  List.iter
    (fun o ->
      match o.hold with
      | Some src ->
          add "  logic [W-1:0] hold_%s; // output finishing at the period end\n"
            o.signal;
          add "  always_ff @(posedge clk) begin\n";
          add "    if (rst) hold_%s <= 0;\n" o.signal;
          add "    else if (step == %d) hold_%s <= %s;\n" (nl.period - 1)
            o.signal (source_expr nl src);
          add "  end\n";
          add "  assign out_%s = hold_%s;\n" o.signal o.signal
      | None ->
          add "  assign out_%s = rf_%d;\n" o.signal nl.reg_of_node.(o.onode))
    nl.outputs;
  add "endmodule\n";
  (* one submodule per FU instance: latched operands + latched class select,
     combinational result *)
  Array.iter
    (fun fu ->
      let base = fu_base nl fu in
      add "\nmodule %s_%s #(parameter W = %d) (\n" nl.module_name base nl.width;
      add "  input logic clk,\n  input logic rst";
      if Array.length fu.activations > 0 then begin
        add ",\n  input logic le";
        if Array.length fu.classes >= 2 then
          add ",\n  input logic [%d:0] sel" (bits (Array.length fu.classes) - 1)
      end;
      for p = 0 to fu.ports - 1 do
        add ",\n  input logic [W-1:0] p%d" p
      done;
      add ",\n  output logic [W-1:0] y\n);\n";
      if Array.length fu.classes = 0 then add "  assign y = 0;\n"
      else begin
        for p = 0 to fu.ports - 1 do
          add "  logic [W-1:0] l%d;\n" p
        done;
        let has_sel = Array.length fu.classes >= 2 in
        if has_sel then
          add "  logic [%d:0] lsel;\n" (bits (Array.length fu.classes) - 1);
        add "  always_ff @(posedge clk) begin\n";
        add "    if (rst) begin\n";
        for p = 0 to fu.ports - 1 do
          add "      l%d <= 0;\n" p
        done;
        if has_sel then add "      lsel <= 0;\n";
        add "    end else if (le) begin\n";
        for p = 0 to fu.ports - 1 do
          add "      l%d <= p%d;\n" p p
        done;
        if has_sel then add "      lsel <= sel;\n";
        add "    end\n  end\n";
        if has_sel then begin
          add "  always_comb begin\n    case (lsel)\n";
          Array.iteri
            (fun i c ->
              add "      %d: y = %s; // %s/%d\n" i (class_expr c) c.op c.arity)
            fu.classes;
          add "      default: y = %s;\n" (class_expr fu.classes.(0));
          add "    endcase\n  end\n"
        end
        else
          add "  assign y = %s; // %s/%d\n"
            (class_expr fu.classes.(0))
            fu.classes.(0).op fu.classes.(0).arity
      end;
      add "endmodule\n")
    nl.fus;
  Buffer.contents buf

let emit_testbench nl g ~iterations ~input =
  if iterations < 1 then invalid_arg "Sv.emit_testbench: iterations < 1";
  let mask = (1 lsl nl.width) - 1 in
  let expected = Dfg.Interp.run g ~iterations ~input in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "// Self-checking testbench generated by hetsched.\n";
  add "// Golden model: Dfg.Interp over %d iterations, period %d.\n"
    iterations nl.period;
  add "`timescale 1ns/1ns\n";
  add "module %s_tb;\n" nl.module_name;
  add "  logic clk = 0;\n  logic rst = 1;\n";
  List.iter
    (fun (_, sig_) -> add "  logic [%d:0] in_%s = 0;\n" (nl.width - 1) sig_)
    nl.inputs;
  List.iter
    (fun o -> add "  logic [%d:0] out_%s;\n" (nl.width - 1) o.signal)
    nl.outputs;
  add "  integer errors = 0;\n\n";
  add "  %s #(.W(%d)) dut (\n    .clk(clk), .rst(rst)" nl.module_name nl.width;
  List.iter (fun (_, sig_) -> add ",\n    .in_%s(in_%s)" sig_ sig_) nl.inputs;
  List.iter (fun o -> add ",\n    .out_%s(out_%s)" o.signal o.signal)
    nl.outputs;
  add "\n  );\n\n";
  add "  always #5 clk = ~clk;\n\n";
  add "  task check(input [%d:0] got, input [%d:0] want, input integer it);\n"
    (nl.width - 1) (nl.width - 1);
  add "    begin\n      if (got !== want) begin\n";
  add
    "        $display(\"MISMATCH iter %%0d: got %%0d want %%0d\", it, got, \
     want);\n";
  add "        errors = errors + 1;\n      end\n    end\n  endtask\n\n";
  add "  initial begin\n";
  add "    @(negedge clk); @(negedge clk);\n    rst = 0;\n";
  for i = 0 to iterations - 1 do
    add "    // iteration %d\n" i;
    List.iter
      (fun (v, sig_) -> add "    in_%s = %d;\n" sig_ (input v i land mask))
      nl.inputs;
    add "    repeat (%d) @(negedge clk);\n" nl.period;
    List.iter
      (fun o ->
        add "    check(out_%s, %d, %d);\n" o.signal
          (expected.(o.onode).(i) land mask)
          i)
      nl.outputs
  done;
  add "    if (errors == 0) $display(\"TESTBENCH PASSED\");\n";
  add "    else $display(\"TESTBENCH FAILED: %%0d errors\", errors);\n";
  add "    $finish;\n  end\nendmodule\n";
  Buffer.contents buf
