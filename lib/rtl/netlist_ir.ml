type source =
  | Input of int
  | Register of int
  | History of int * int
  | Fu_bus of int

type opclass = { op : string; arity : int }

type activation = {
  node : int;
  cls : int;
  latch_step : int;
  operands : source array;
  start : int;
  finish : int;
}

type fu = {
  id : int;
  fu_type : int;
  instance : int;
  ports : int;
  classes : opclass array;
  activations : activation array;
}

type write = { reg : int; step : int; source : source; wnode : int }
type history = { hnode : int; depth : int; feed : source }
type output = { onode : int; signal : string; hold : source option }

type t = {
  module_name : string;
  width : int;
  period : int;
  config : Sched.Config.t;
  type_names : string array;
  names : string array;
  node_ops : string array;
  fus : fu array;
  fu_of_node : int array;
  reg_of_node : int array;
  reg_count : int;
  writes : write array;
  histories : history array;
  inputs : (int * string) list;
  outputs : output list;
  unsupported : (int * string) list;
}

let supported_op = function
  | "add" | "sub" | "mul" | "comp" -> true
  | _ -> false

let build ?(module_name = "hetsched") ?(width = 16) ?binding g table s =
  if width < 1 then invalid_arg "Netlist_ir.build: width < 1";
  let n = Dfg.Graph.num_nodes g in
  let binding =
    match binding with Some b -> b | None -> Sched.Binding.bind table s
  in
  let config = binding.Sched.Binding.config in
  let period = Sched.Schedule.length table s in
  let start v = s.Sched.Schedule.start.(v) in
  let finish v = Sched.Schedule.finish table s v in
  let names = Ident.node_names g in
  let node_ops = Array.init n (Dfg.Graph.op g) in
  let is_input v = Dfg.Graph.preds g v = [] in
  let is_output v = Dfg.Graph.dag_succs g v = [] in
  (* shared register file: exactly the left-edge allocation *)
  let allocation, reg_count = Sched.Registers.allocate g table s in
  let reg_of_node = Array.make n (-1) in
  List.iter
    (fun (lt, r) -> reg_of_node.(lt.Sched.Registers.node) <- r)
    allocation;
  (* flat FU instance ids: type-major, instance-minor *)
  let k = Array.length config in
  let offset = Array.make (k + 1) 0 in
  for t = 0 to k - 1 do
    offset.(t + 1) <- offset.(t) + config.(t)
  done;
  let num_fus = offset.(k) in
  let fu_of_node = Array.make n (-1) in
  for v = 0 to n - 1 do
    if not (is_input v) then
      fu_of_node.(v) <-
        offset.(s.Sched.Schedule.assignment.(v))
        + binding.Sched.Binding.instance.(v)
  done;
  let bus_of u = if is_input u then Input u else Fu_bus fu_of_node.(u) in
  (* where consumer [v]'s operand latch (on the clock edge that ends the
     step before [v] starts, wrapping to the period boundary for start-0
     nodes) finds producer [u]'s value [d] iterations back *)
  let source_of v (u, d) =
    let sv = start v in
    if d = 0 then
      if finish u = sv then bus_of u else Register reg_of_node.(u)
    else if sv >= 1 then History (u, d)
    else if d = 1 then
      if finish u = period then bus_of u else Register reg_of_node.(u)
    else History (u, d - 1)
  in
  (* group compute activations per flat FU instance, deriving the
     (op, arity) class table of each instance *)
  let fu_classes = Array.make num_fus [] in
  let fu_acts = Array.make num_fus [] in
  for v = n - 1 downto 0 do
    if not (is_input v) then begin
      let f = fu_of_node.(v) in
      let preds = Dfg.Graph.preds g v in
      let c = { op = node_ops.(v); arity = List.length preds } in
      (if not (List.mem c fu_classes.(f)) then
         fu_classes.(f) <- c :: fu_classes.(f));
      let latch_step = if start v = 0 then period - 1 else start v - 1 in
      let operands = Array.of_list (List.map (source_of v) preds) in
      fu_acts.(f) <-
        { node = v; cls = 0; latch_step; operands; start = start v;
          finish = finish v }
        :: fu_acts.(f)
    end
  done;
  let fus =
    Array.init num_fus (fun f ->
        let fu_type = ref 0 in
        for t = 0 to k - 1 do
          if f >= offset.(t) then fu_type := t
        done;
        let classes = Array.of_list fu_classes.(f) in
        let find_cls op arity =
          let rec go i =
            if classes.(i).op = op && classes.(i).arity = arity then i
            else go (i + 1)
          in
          go 0
        in
        let activations =
          fu_acts.(f)
          |> List.map (fun a ->
                 { a with
                   cls = find_cls node_ops.(a.node) (Array.length a.operands)
                 })
          |> List.sort (fun a b -> compare a.start b.start)
          |> Array.of_list
        in
        let ports =
          Array.fold_left (fun acc c -> max acc c.arity) 0 classes
        in
        {
          id = f;
          fu_type = !fu_type;
          instance = f - offset.(!fu_type);
          ports;
          classes;
          activations;
        })
  in
  (* register-file write schedule: node v's value lands in its register on
     the edge ending step finish(v)-1 (so it is present from step
     finish(v), the lifetime's birth) *)
  let writes =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if reg_of_node.(v) >= 0 then
        acc :=
          {
            reg = reg_of_node.(v);
            step = finish v - 1;
            source = (if is_input v then Input v else Fu_bus fu_of_node.(v));
            wnode = v;
          }
          :: !acc
    done;
    List.sort (fun a b -> compare (a.step, a.reg) (b.step, b.reg)) !acc
    |> Array.of_list
  in
  (* inter-iteration history chains, advanced on the period boundary; a
     producer finishing exactly at the period end forwards its bus value,
     since its register (if any) updates on the same edge *)
  let max_delay = Array.make n 0 in
  List.iter
    (fun { Dfg.Graph.src; delay; _ } ->
      if delay > max_delay.(src) then max_delay.(src) <- delay)
    (Dfg.Graph.edges g);
  let histories =
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if max_delay.(v) > 0 then
        acc :=
          {
            hnode = v;
            depth = max_delay.(v);
            feed =
              (if finish v = period then bus_of v
               else Register reg_of_node.(v));
          }
          :: !acc
    done;
    Array.of_list !acc
  in
  let inputs =
    List.filter_map
      (fun v -> if is_input v then Some (v, names.(v)) else None)
      (List.init n Fun.id)
  in
  (* an output finishing exactly at the period end has an empty shared
     lifetime, so it gets a dedicated hold register loaded at the
     boundary *)
  let outputs =
    List.filter_map
      (fun v ->
        if is_output v then
          Some
            {
              onode = v;
              signal = names.(v);
              hold = (if reg_of_node.(v) < 0 then Some (bus_of v) else None);
            }
        else None)
      (List.init n Fun.id)
  in
  let unsupported =
    List.filter_map
      (fun v ->
        if (not (is_input v)) && not (supported_op node_ops.(v)) then
          Some (v, node_ops.(v))
        else None)
      (List.init n Fun.id)
  in
  let lib = Fulib.Table.library table in
  let type_names =
    Array.init k (fun t -> Ident.sanitize (Fulib.Library.type_name lib t))
  in
  {
    module_name;
    width;
    period;
    config;
    type_names;
    names;
    node_ops;
    fus;
    fu_of_node;
    reg_of_node;
    reg_count;
    writes;
    histories;
    inputs;
    outputs;
    unsupported;
  }

type stats = {
  fu_instances : int;
  registers : int;
  out_hold_regs : int;
  history_regs : int;
  mux_count : int;
  mux_inputs : int;
  wires : int;
  unsupported_ops : int;
}

let stats nl =
  let distinct srcs =
    List.fold_left
      (fun acc s -> if List.mem s acc then acc else s :: acc)
      [] srcs
    |> List.length
  in
  let mux_count = ref 0 and mux_inputs = ref 0 in
  (* operand-port muxes: distinct sources feeding each FU port *)
  Array.iter
    (fun fu ->
      for p = 0 to fu.ports - 1 do
        let srcs =
          Array.to_list fu.activations
          |> List.filter_map (fun a ->
                 if p < Array.length a.operands then Some a.operands.(p)
                 else None)
        in
        let fanin = distinct srcs in
        if fanin >= 2 then begin
          incr mux_count;
          mux_inputs := !mux_inputs + fanin
        end
      done)
    nl.fus;
  (* register-file input muxes: distinct write sources per register *)
  for r = 0 to nl.reg_count - 1 do
    let srcs =
      Array.to_list nl.writes
      |> List.filter_map (fun w -> if w.reg = r then Some w.source else None)
    in
    let fanin = distinct srcs in
    if fanin >= 2 then begin
      incr mux_count;
      mux_inputs := !mux_inputs + fanin
    end
  done;
  let out_hold_regs =
    List.length (List.filter (fun o -> o.hold <> None) nl.outputs)
  in
  let history_regs =
    Array.fold_left (fun acc h -> acc + h.depth) 0 nl.histories
  in
  let port_nets = Array.fold_left (fun acc fu -> acc + fu.ports) 0 nl.fus in
  {
    fu_instances = Array.length nl.fus;
    registers = nl.reg_count;
    out_hold_regs;
    history_regs;
    mux_count = !mux_count;
    mux_inputs = !mux_inputs;
    wires =
      Array.length nl.fus (* result buses *)
      + port_nets + nl.reg_count + out_hold_regs + history_regs
      + List.length nl.inputs
      + List.length nl.outputs;
    unsupported_ops = List.length nl.unsupported;
  }
