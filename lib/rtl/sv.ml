open Netlist_ir

(* --- the output buffer ---------------------------------------------------

   Every emission writes into its domain's one byte buffer, which grows
   by doubling and is reset, not reallocated, per emission; the
   finisher copies or digests it before the emission returns, so nothing
   outside this module ever sees the bytes. Emission calls no code outside
   this module while it writes (the testbench evaluates its stimulus
   first), so two emissions on one domain never interleave. Literals and
   integers go in directly: no format string is interpreted and no
   per-line string is allocated. The writers below keep one emitted line
   per source line where it fits. *)

type out = { mutable bytes : Bytes.t; mutable len : int }

let initial_size = 16_384

(* A buffer that grew past this is dropped after use, so one huge design
   does not pin its size in every domain. *)
let max_kept = 1 lsl 20

let key =
  Domain.DLS.new_key (fun () -> { bytes = Bytes.create initial_size; len = 0 })

let grow b need =
  let cap = ref (2 * Bytes.length b.bytes) in
  while !cap < b.len + need do
    cap := 2 * !cap
  done;
  let bytes = Bytes.create !cap in
  Bytes.blit b.bytes 0 bytes 0 b.len;
  b.bytes <- bytes

let str b s =
  let n = String.length s in
  if b.len + n > Bytes.length b.bytes then grow b n;
  Bytes.unsafe_blit_string s 0 b.bytes b.len n;
  b.len <- b.len + n

let chr b c =
  if b.len >= Bytes.length b.bytes then grow b 1;
  Bytes.unsafe_set b.bytes b.len c;
  b.len <- b.len + 1

(* [n] in decimal, byte for byte as [%d] prints it; the digits are taken
   from the non-positive [-|n|] so that [min_int] needs no special case. *)
let int b n =
  let m = if n < 0 then n else -n in
  let digits = ref 1 and r = ref m in
  while !r <= -10 do
    incr digits;
    r := !r / 10
  done;
  let width = if n < 0 then !digits + 1 else !digits in
  if b.len + width > Bytes.length b.bytes then grow b width;
  if n < 0 then Bytes.unsafe_set b.bytes b.len '-';
  let r = ref m in
  for i = b.len + width - 1 downto b.len + width - !digits do
    Bytes.unsafe_set b.bytes i (Char.unsafe_chr (48 - (!r mod 10)));
    r := !r / 10
  done;
  b.len <- b.len + width

type 'a finish = Bytes.t -> int -> 'a

let text bytes len = Bytes.sub_string bytes 0 len
let digest bytes len = Digest.subbytes bytes 0 len

let render finish write =
  let b = Domain.DLS.get key in
  b.len <- 0;
  write b;
  let result = finish b.bytes b.len in
  if Bytes.length b.bytes > max_kept then b.bytes <- Bytes.create initial_size;
  result

(* --- names and expressions ---------------------------------------------- *)

let fu_base b nl fu =
  str b "fu_"; str b nl.type_names.(fu.fu_type); chr b '_'; int b fu.instance

let source b nl = function
  | Input v -> str b "in_"; str b nl.names.(v)
  | Register r -> str b "rf_"; int b r
  | History (v, d) -> str b "h_"; str b nl.names.(v); chr b '_'; int b d
  | Fu_bus f -> fu_base b nl nl.fus.(f); str b "_y"

let bits n =
  let rec go n acc = if n <= 1 then max acc 1 else go (n / 2) (acc + 1) in
  go (max n 2 - 1) 1

let operand b i = chr b 'l'; int b i

(* the expression an FU class computes over its latched operands, mirroring
   Dfg.Interp.apply; unsupported ops fold with xor (documented placeholder,
   reported through Netlist_ir.unsupported) *)
let class_expr b c =
  let fold sep =
    for i = 0 to c.arity - 1 do
      if i > 0 then str b sep;
      operand b i
    done
  in
  if c.arity = 0 then chr b '0'
  else
    match c.op with
    | "add" -> fold " + "
    | "sub" -> fold " - "
    | "mul" -> fold " * "
    | "comp" when c.arity = 1 -> chr b '0'
    | "comp" ->
        (* l0 against the minimum of the rest, as nested ternaries *)
        let rec min_expr i =
          if i = c.arity - 1 then operand b i
          else begin
            str b "(("; operand b i; str b " < "; min_expr (i + 1);
            str b ") ? "; operand b i; str b " : "; min_expr (i + 1);
            chr b ')'
          end
        in
        str b "(l0 < "; min_expr 1; str b ") ? 1 : 0"
    | _ -> fold " ^ "

(* --- the module ---------------------------------------------------------- *)

let write_module b (st : stats) nl =
  let period_end () = int b (nl.period - 1) in
  str b "// Generated by hetsched: structural datapath, period ";
  int b nl.period; chr b '\n';
  str b "// FU configuration: ";
  Array.iteri (fun i k -> if i > 0 then chr b '-'; int b k) nl.config;
  str b " ("; int b st.fu_instances; str b " instances); register file: ";
  int b st.registers; str b " (left-edge)\n";
  str b "// muxes: "; int b st.mux_count;
  str b " (fan-in "; int b st.mux_inputs;
  str b "); history regs: "; int b st.history_regs;
  str b "; output holds: "; int b st.out_hold_regs; chr b '\n';
  List.iter
    (fun (v, op) ->
      (* the op as [%S] prints it *)
      str b "// UNSUPPORTED op \""; str b (String.escaped op);
      str b "\" on node "; str b nl.names.(v);
      str b ": lowered to xor placeholder\n")
    nl.unsupported;
  str b "module "; str b nl.module_name;
  str b " #(parameter W = "; int b nl.width; str b ") (\n";
  str b "  input logic clk,\n  input logic rst";
  List.iter
    (fun (_, signal) -> str b ",\n  input logic [W-1:0] in_"; str b signal)
    nl.inputs;
  List.iter
    (fun o -> str b ",\n  output logic [W-1:0] out_"; str b o.signal)
    nl.outputs;
  str b "\n);\n\n";
  (* FSM: free-running modulo-period control-step counter *)
  str b "  logic ["; int b (bits nl.period - 1); str b ":0] step;\n";
  str b "  always_ff @(posedge clk) begin\n";
  str b "    if (rst) step <= 0;\n";
  str b "    else step <= (step == "; period_end ();
  str b ") ? 0 : step + 1;\n";
  str b "  end\n\n";
  if nl.reg_count > 0 then begin
    str b "  // shared register file (left-edge allocation)\n";
    for r = 0 to nl.reg_count - 1 do
      str b "  logic [W-1:0] rf_"; int b r; str b ";\n"
    done;
    chr b '\n'
  end;
  Array.iter
    (fun h ->
      let name = nl.names.(h.hnode) in
      for d = 1 to h.depth do
        str b "  logic [W-1:0] h_"; str b name; chr b '_'; int b d;
        str b "; // "; str b name; str b ", "; int b d;
        str b " iteration(s) back\n"
      done)
    nl.histories;
  if Array.length nl.histories > 0 then chr b '\n';
  (* per-FU nets, control decode, and instantiation *)
  Array.iter
    (fun fu ->
      let acts = fu.activations and nclasses = Array.length fu.classes in
      let base () = fu_base b nl fu in
      let port p = base (); str b "_p"; int b p in
      str b "  // FU "; str b nl.type_names.(fu.fu_type); chr b '[';
      int b fu.instance; str b "]: "; int b nclasses; str b " op class(es), ";
      int b (Array.length acts); str b " activation(s)\n";
      str b "  logic [W-1:0] "; base (); str b "_y;\n";
      for p = 0 to fu.ports - 1 do
        str b "  logic [W-1:0] "; port p; str b ";\n"
      done;
      if Array.length acts > 0 then begin
        str b "  logic "; base (); str b "_le;\n";
        str b "  assign "; base (); str b "_le = ";
        Array.iteri
          (fun i a ->
            if i > 0 then str b " || ";
            str b "(step == "; int b a.latch_step; chr b ')')
          acts;
        str b ";\n";
        (* operand muxes: one case per latch step; the default repeats
           the first case *)
        for p = 0 to fu.ports - 1 do
          str b "  always_comb begin\n    case (step)\n";
          let first = ref None in
          Array.iter
            (fun a ->
              if p < Array.length a.operands then begin
                (match !first with
                | None -> first := Some a.operands.(p)
                | Some _ -> ());
                str b "      "; int b a.latch_step; str b ": "; port p;
                str b " = "; source b nl a.operands.(p); str b ";\n"
              end)
            acts;
          str b "      default: "; port p; str b " = ";
          (match !first with Some s -> source b nl s | None -> chr b '0');
          str b ";\n";
          str b "    endcase\n  end\n"
        done;
        if nclasses >= 2 then begin
          str b "  logic ["; int b (bits nclasses - 1); str b ":0] "; base ();
          str b "_sel;\n";
          str b "  always_comb begin\n    case (step)\n";
          Array.iter
            (fun a ->
              str b "      "; int b a.latch_step; str b ": "; base ();
              str b "_sel = "; int b a.cls; str b ";\n")
            acts;
          str b "      default: "; base (); str b "_sel = 0;\n";
          str b "    endcase\n  end\n"
        end
      end;
      str b "  "; str b nl.module_name; chr b '_'; base ();
      str b " #(.W(W)) u_"; base (); str b " (\n";
      str b "    .clk(clk), .rst(rst)";
      if Array.length acts > 0 then begin
        str b ", .le("; base (); str b "_le)";
        if nclasses >= 2 then begin str b ", .sel("; base (); str b "_sel)" end
      end;
      for p = 0 to fu.ports - 1 do
        str b ",\n    .p"; int b p; chr b '('; port p; chr b ')'
      done;
      str b ",\n    .y("; base (); str b "_y)\n  );\n\n")
    nl.fus;
  (* register-file write strobes, decoded per step *)
  for r = 0 to nl.reg_count - 1 do
    str b "  always_ff @(posedge clk) begin\n";
    str b "    if (rst) rf_"; int b r; str b " <= 0;\n";
    Array.iter
      (fun w ->
        if w.reg = r then begin
          str b "    else if (step == "; int b w.step; str b ") rf_"; int b r;
          str b " <= "; source b nl w.source; str b "; // ";
          str b nl.names.(w.wnode); chr b '\n'
        end)
      nl.writes;
    str b "  end\n"
  done;
  if Array.length nl.histories > 0 then begin
    str b "\n  // inter-iteration history, advanced at the period boundary\n";
    str b "  always_ff @(posedge clk) begin\n";
    str b "    if (rst) begin\n";
    Array.iter
      (fun h ->
        for d = 1 to h.depth do
          str b "      h_"; str b nl.names.(h.hnode); chr b '_'; int b d;
          str b " <= 0;\n"
        done)
      nl.histories;
    str b "    end else if (step == "; period_end (); str b ") begin\n";
    Array.iter
      (fun h ->
        let name = nl.names.(h.hnode) in
        str b "      h_"; str b name; str b "_1 <= "; source b nl h.feed;
        str b ";\n";
        for d = 2 to h.depth do
          str b "      h_"; str b name; chr b '_'; int b d;
          str b " <= h_"; str b name; chr b '_'; int b (d - 1); str b ";\n"
        done)
      nl.histories;
    str b "    end\n  end\n"
  end;
  chr b '\n';
  List.iter
    (fun o ->
      match o.hold with
      | Some src ->
          str b "  logic [W-1:0] hold_"; str b o.signal;
          str b "; // output finishing at the period end\n";
          str b "  always_ff @(posedge clk) begin\n";
          str b "    if (rst) hold_"; str b o.signal; str b " <= 0;\n";
          str b "    else if (step == "; period_end (); str b ") hold_";
          str b o.signal; str b " <= "; source b nl src; str b ";\n";
          str b "  end\n";
          str b "  assign out_"; str b o.signal;
          str b " = hold_"; str b o.signal; str b ";\n"
      | None ->
          str b "  assign out_"; str b o.signal; str b " = rf_";
          int b nl.reg_of_node.(o.onode); str b ";\n")
    nl.outputs;
  str b "endmodule\n";
  (* one submodule per FU instance: latched operands + latched class select,
     combinational result *)
  Array.iter
    (fun fu ->
      let nclasses = Array.length fu.classes in
      let has_sel = nclasses >= 2 in
      let each_port f =
        for p = 0 to fu.ports - 1 do
          f p
        done
      in
      let class_line c =
        class_expr b c; str b "; // "; str b c.op; chr b '/'; int b c.arity;
        chr b '\n'
      in
      str b "\nmodule "; str b nl.module_name; chr b '_'; fu_base b nl fu;
      str b " #(parameter W = "; int b nl.width; str b ") (\n";
      str b "  input logic clk,\n  input logic rst";
      if Array.length fu.activations > 0 then begin
        str b ",\n  input logic le";
        if has_sel then begin
          str b ",\n  input logic ["; int b (bits nclasses - 1); str b ":0] sel"
        end
      end;
      each_port (fun p -> str b ",\n  input logic [W-1:0] p"; int b p);
      str b ",\n  output logic [W-1:0] y\n);\n";
      if nclasses = 0 then str b "  assign y = 0;\n"
      else begin
        each_port (fun p -> str b "  logic [W-1:0] l"; int b p; str b ";\n");
        if has_sel then begin
          str b "  logic ["; int b (bits nclasses - 1); str b ":0] lsel;\n"
        end;
        str b "  always_ff @(posedge clk) begin\n";
        str b "    if (rst) begin\n";
        each_port (fun p -> str b "      l"; int b p; str b " <= 0;\n");
        if has_sel then str b "      lsel <= 0;\n";
        str b "    end else if (le) begin\n";
        each_port (fun p ->
            str b "      l"; int b p; str b " <= p"; int b p; str b ";\n");
        if has_sel then str b "      lsel <= sel;\n";
        str b "    end\n  end\n";
        if has_sel then begin
          str b "  always_comb begin\n    case (lsel)\n";
          Array.iteri
            (fun i c -> str b "      "; int b i; str b ": y = "; class_line c)
            fu.classes;
          str b "      default: y = "; class_expr b fu.classes.(0); str b ";\n";
          str b "    endcase\n  end\n"
        end
        else begin
          str b "  assign y = "; class_line fu.classes.(0)
        end
      end;
      str b "endmodule\n")
    nl.fus

let module_ finish st nl = render finish (fun b -> write_module b st nl)
let emit_module nl = module_ text (stats nl) nl

(* --- the testbench -------------------------------------------------------- *)

let write_testbench b nl ~iterations ~stimulus ~expected ~mask =
  let range () = chr b '['; int b (nl.width - 1); str b ":0]" in
  str b "// Self-checking testbench generated by hetsched.\n";
  str b "// Golden model: Dfg.Interp over "; int b iterations;
  str b " iterations, period "; int b nl.period; str b ".\n";
  str b "`timescale 1ns/1ns\n";
  str b "module "; str b nl.module_name; str b "_tb;\n";
  str b "  logic clk = 0;\n  logic rst = 1;\n";
  List.iter
    (fun (_, signal) ->
      str b "  logic "; range (); str b " in_"; str b signal; str b " = 0;\n")
    nl.inputs;
  List.iter
    (fun o ->
      str b "  logic "; range (); str b " out_"; str b o.signal; str b ";\n")
    nl.outputs;
  str b "  integer errors = 0;\n\n";
  str b "  "; str b nl.module_name;
  str b " #(.W("; int b nl.width; str b ")) dut (\n";
  str b "    .clk(clk), .rst(rst)";
  List.iter
    (fun (_, signal) ->
      str b ",\n    .in_"; str b signal; str b "(in_"; str b signal; chr b ')')
    nl.inputs;
  List.iter
    (fun o ->
      str b ",\n    .out_"; str b o.signal; str b "(out_"; str b o.signal;
      chr b ')')
    nl.outputs;
  str b "\n  );\n\n";
  str b "  always #5 clk = ~clk;\n\n";
  str b "  task check(input "; range (); str b " got, input "; range ();
  str b " want, input integer it);\n";
  str b "    begin\n      if (got !== want) begin\n";
  str b "        $display(\"MISMATCH iter %0d: got %0d want %0d\", it, got, \
       want);\n";
  str b "        errors = errors + 1;\n      end\n    end\n  endtask\n\n";
  str b "  initial begin\n";
  str b "    @(negedge clk); @(negedge clk);\n    rst = 0;\n";
  for i = 0 to iterations - 1 do
    str b "    // iteration "; int b i; chr b '\n';
    List.iteri
      (fun k (_, signal) ->
        str b "    in_"; str b signal; str b " = "; int b stimulus.(i).(k);
        str b ";\n")
      nl.inputs;
    str b "    repeat ("; int b nl.period; str b ") @(negedge clk);\n";
    List.iter
      (fun o ->
        str b "    check(out_"; str b o.signal; str b ", ";
        int b (expected.(o.onode).(i) land mask); str b ", "; int b i;
        str b ");\n")
      nl.outputs
  done;
  str b "    if (errors == 0) $display(\"TESTBENCH PASSED\");\n";
  str b "    else $display(\"TESTBENCH FAILED: %0d errors\", errors);\n";
  str b "    $finish;\n  end\nendmodule\n"

let testbench finish nl g ~iterations ~input =
  if iterations < 1 then invalid_arg "Sv.testbench: iterations < 1";
  let mask = (1 lsl nl.width) - 1 in
  let expected = Dfg.Interp.run g ~iterations ~input in
  (* the stimulus is evaluated up front, in the order the bench applies
     it, so no caller code runs while the buffer is being written *)
  let stimulus =
    Array.init iterations (fun i ->
        Array.of_list (List.map (fun (v, _) -> input v i land mask) nl.inputs))
  in
  render finish (fun b ->
      write_testbench b nl ~iterations ~stimulus ~expected ~mask)
