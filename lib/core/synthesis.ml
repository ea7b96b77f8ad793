type algorithm = Assign.Solve.algorithm =
  | Greedy
  | Greedy_iterative
  | Tree
  | Once
  | Repeat
  | Repeat_search
  | Repeat_refined
  | Beam
  | Exact

let algorithm_name = Assign.Solve.name
let all_algorithms = Assign.Solve.all

type scheduler = List_scheduling | Force_directed

type result = {
  algorithm : algorithm;
  assignment : Assign.Assignment.t;
  cost : int;
  makespan : int;
  schedule : Sched.Schedule.t;
  config : Sched.Config.t;
  lower_bound : Sched.Config.t;
}

type request = {
  graph : Dfg.Graph.t;
  table : Fulib.Table.t;
  deadline : int;
  algorithm : algorithm;
  scheduler : scheduler;
  validate : bool;
  budget_ms : int option;
  levels : Fulib.Dvfs.level array array option;
  rtl : bool;
}

let request ?(scheduler = List_scheduling) ?(validate = false) ?budget_ms
    ?levels ?(rtl = false) ~algorithm ~deadline graph table =
  {
    graph;
    table;
    deadline;
    algorithm;
    scheduler;
    validate;
    budget_ms;
    levels;
    rtl;
  }

(* --- canonical encoding ------------------------------------------------- *)

(* Every int is a zigzag LEB128 varint (one byte for the small times,
   costs and node ids that dominate), every string is length-prefixed and
   every variable-length section is count-prefixed, so the encoding is
   prefix-free. *)
let put_int e v =
  let u = ref ((v lsl 1) lxor (v asr (Sys.int_size - 1))) in
  while !u land lnot 0x7f <> 0 do
    Buffer.add_char e (Char.unsafe_chr (!u land 0x7f lor 0x80));
    u := !u lsr 7
  done;
  Buffer.add_char e (Char.unsafe_chr !u)

let put_bool e b = put_int e (Bool.to_int b)

let put_string e s =
  put_int e (String.length s);
  Buffer.add_string e s

let compare_edge ((d1 : int), (l1 : int), (s1 : int)) (d2, l2, s2) =
  if d1 <> d2 then compare d1 d2
  else if l1 <> l2 then compare l1 l2
  else compare s1 s2

let rec sorted = function
  | a :: (b :: _ as rest) -> compare_edge a b <= 0 && sorted rest
  | [] | [ _ ] -> true

(* One source's outgoing edges, sorted. Builders append a source's edges
   in insertion order, which is usually already sorted; only an unsorted
   list pays for the sort. *)
let out_edges g v =
  let l = Dfg.Graph.succs_sized g v in
  if sorted l then l else List.sort compare_edge l

(* The record is destructured without a wildcard: a new request field does
   not compile until it is encoded here or named as excluded. *)
let encode
    {
      graph = g;
      table;
      deadline;
      algorithm;
      scheduler;
      validate;
      budget_ms;
      levels;
      rtl;
    } =
  let n = Dfg.Graph.num_nodes g and k = Fulib.Table.num_types table in
  (* room for one byte per int, the common case; the buffer grows past it.
     Kept small so the buffer stays in the minor heap. *)
  let ints = 32 + n + (3 * Dfg.Graph.num_edges g) + (2 * n * k) + (10 * k) in
  let e = Buffer.create ints in
  put_int e n;
  for v = 0 to n - 1 do
    let out = out_edges g v in
    put_int e (List.length out);
    List.iter
      (fun (dst, delay, size) ->
        put_int e dst;
        put_int e delay;
        put_int e size)
      out
  done;
  put_int e k;
  let lib = Fulib.Table.library table in
  for t = 0 to k - 1 do
    put_int e (Fulib.Library.mem_capacity lib t)
  done;
  (* node-major, time then cost per cell; a table shorter than the
     graph fails the flat read like the accessors would *)
  let times = Fulib.Table.flat_times table
  and costs = Fulib.Table.flat_costs table in
  for c = 0 to (n * k) - 1 do
    put_int e times.(c);
    put_int e costs.(c)
  done;
  put_int e deadline;
  put_string e (algorithm_name algorithm);
  put_int e (match scheduler with List_scheduling -> 0 | Force_directed -> 1);
  put_bool e validate;
  (match budget_ms with
  | None -> put_bool e false
  | Some ms ->
      put_bool e true;
      put_int e ms);
  (match levels with
  | None -> put_bool e false
  | Some ladders ->
      put_bool e true;
      put_int e (Array.length ladders);
      Array.iter
        (fun ladder ->
          put_int e (Array.length ladder);
          Array.iter
            (fun (l : Fulib.Dvfs.level) ->
              put_int e l.Fulib.Dvfs.freq_pct;
              put_int e l.Fulib.Dvfs.time_pct;
              put_int e l.Fulib.Dvfs.energy_pct)
            ladder)
        ladders);
  put_bool e rtl;
  if rtl then begin
    for v = 0 to n - 1 do
      put_string e (Dfg.Graph.op g v);
      put_string e (Dfg.Graph.name g v)
    done;
    for t = 0 to k - 1 do
      put_string e (Fulib.Library.type_name lib t)
    done
  end;
  Buffer.contents e

type status = Ok | Infeasible | Infeasible_memory | Timeout | Error of string

type dvfs = {
  expanded : Fulib.Table.t;
  mapping : Fulib.Dvfs.mapping;
  energy_before : int;
  energy_after : int;
  reclaim_moves : int;
}

type response = {
  result : result option;
  status : status;
  violations : Check.Violation.t list;
  stats : (string * int) list;
  dvfs : dvfs option;
  rtl : Rtl.Backend.summary option;
}

(** The table a response's result refers to: the DVFS-expanded table on
    leveled requests, the request's own table otherwise. *)
let response_table req resp =
  match resp.dvfs with Some d -> d.expanded | None -> req.table

let min_deadline g table = Assign.Assignment.min_makespan g table

let default_deadline g table =
  int_of_float (ceil (1.2 *. float_of_int (min_deadline g table)))

(* --- request accounting ------------------------------------------------ *)

let c_requests = Obs.Counter.make "synthesis.requests"
let c_ok = Obs.Counter.make "synthesis.ok"
let c_infeasible = Obs.Counter.make "synthesis.infeasible"
let c_infeasible_memory = Obs.Counter.make "synthesis.infeasible_memory"
let c_timeout = Obs.Counter.make "synthesis.timeout"
let c_error = Obs.Counter.make "synthesis.error"

let count_status = function
  | Ok -> Obs.Counter.incr c_ok
  | Infeasible -> Obs.Counter.incr c_infeasible
  | Infeasible_memory -> Obs.Counter.incr c_infeasible_memory
  | Timeout -> Obs.Counter.incr c_timeout
  | Error _ -> Obs.Counter.incr c_error

(* --- validation --------------------------------------------------------- *)

let audit_reports ?dvfs g table ~deadline r =
  let base =
    [
      Check.Assignment.check ~expect_cost:r.cost g table r.assignment ~deadline;
      Check.Schedule.check ~assignment:r.assignment ~config:r.config g table
        r.schedule ~deadline;
      Check.Config.check table r.schedule ~config:r.config;
    ]
  in
  (* The memory oracle only fires on memory-constrained instances, so
     unconstrained audits (every pre-existing golden run) keep the exact
     same checked-fact counts. *)
  let base =
    if Assign.Assignment.mem_constrained g table then
      base
      @ [
          Check.Memory.check g table r.schedule
            (Sched.Binding.bind table r.schedule);
        ]
    else base
  in
  (* On leveled requests [table] is the expanded table and [r.cost] the
     post-reclamation energy; the energy oracle re-derives both from the
     base table and the level mapping. *)
  match dvfs with
  | None -> base
  | Some (base_table, mapping) ->
      base
      @ [
          Check.Energy.check ~base:base_table ~mapping table r.assignment
            ~expect_energy:r.cost;
        ]

(* Independent audit of a finished synthesis result (HETSCHED_VALIDATE):
   Phase-1 path feasibility + recomputed cost, Phase-2 precedence /
   deadline / occupancy, and configuration coverage — all recomputed by
   lib/check with no call into the solvers that produced the result. *)
let validate g table ~deadline r =
  List.iter Check.Violation.raise_if_failed (audit_reports g table ~deadline r)

(* --- the stages ---------------------------------------------------------- *)

(* Each stage returns [Result.Ok] to go on or [Result.Error status] to stop
   the solve. {!solve} chains them in this order and owns what they share:
   the budget poll, the spans and the exception boundary. *)

let ( let* ) = Result.bind
let stop status = Result.Error status

(* dvfs.expand, on leveled requests. The solve runs over the expanded
   table: a (type, level) pair is just one more selectable type, so every
   algorithm is level-aware for free. Levels that slow a time past
   [Fulib.Table.max_cell] are a plain error, not the exception text. *)
let expand_levels table levels =
  match Fulib.Dvfs.expand table ~levels with
  | expansion -> Result.Ok (Some expansion)
  | exception Invalid_argument msg -> stop (Error ("levels: " ^ msg))

(* Exact can search for longer than a poll between stages notices, and it
   is the one solver with a node budget: milliseconds become nodes at a
   generous fixed rate, so a budgeted Exact request times out (its
   [Budget_exhausted] reaches {!solve}'s boundary) instead of wedging its
   pool worker. *)
let exact_nodes_per_ms = 50_000

(* assign: phase 1. An algorithm that cannot run on this graph is a plain
   error, not the solver's exception text. *)
let assign_types req table =
  match Assign.Solve.applicable req.algorithm req.graph with
  | Result.Error msg -> stop (Error msg)
  | Result.Ok () -> (
      let budget =
        match (req.algorithm, req.budget_ms) with
        | Exact, Some ms -> Some (max 1 (ms * exact_nodes_per_ms))
        | _ -> None
      in
      match
        Assign.Solve.run ?budget req.algorithm req.graph table
          ~deadline:req.deadline
      with
      | Assign.Solve.Feasible a -> Result.Ok a
      | Assign.Solve.Infeasible -> stop Infeasible
      | Assign.Solve.Infeasible_memory -> stop Infeasible_memory)

(* sched.frames: phase 2's ASAP/ALAP windows *)
let frames req table assignment =
  Option.to_result ~none:Infeasible
    (Sched.Asap_alap.frames req.graph table assignment ~deadline:req.deadline)

(* sched.schedule: phase 2's minimum-resource schedule *)
let schedule req table assignment frames =
  let run =
    match req.scheduler with
    | List_scheduling -> Sched.Min_resource.run ?pipelined:None
    | Force_directed -> Sched.Force_directed.run
  in
  match run ~frames req.graph table assignment ~deadline:req.deadline with
  | None -> stop Infeasible
  | Some { Sched.Min_resource.schedule; config; lower_bound } ->
      Result.Ok
        {
          algorithm = req.algorithm;
          assignment;
          cost = Assign.Assignment.total_cost table assignment;
          makespan = Assign.Assignment.makespan req.graph table assignment;
          schedule;
          config;
          lower_bound;
        }

(* sched.reclaim, on leveled requests: reclaim static slack by stretching
   non-critical nodes to cheaper sibling levels (starts, config and
   deadline untouched). *)
let reclaim req (expanded, mapping) r =
  let { Sched.Reclaim.schedule; energy_before; energy_after; moves } =
    if Assign.Assignment.mem_constrained req.graph expanded then
      (* Re-leveling shifts aggregate data load between sibling types; keep
         memory-constrained leveled results untouched so Check.Memory's
         aggregate accounting stays exact. *)
      {
        Sched.Reclaim.schedule = r.schedule;
        energy_before = r.cost;
        energy_after = r.cost;
        moves = 0;
      }
    else
      Sched.Reclaim.run req.graph expanded ~mapping ~config:r.config
        ~deadline:req.deadline r.schedule
  in
  let assignment = schedule.Sched.Schedule.assignment in
  (* Re-leveling shifts occupancy between sibling types, so the
     per-expanded-type view of the (unchanged) physical allocation is
     re-derived from the re-leveled schedule. *)
  let config =
    if moves = 0 then r.config else Sched.Schedule.peak_usage expanded schedule
  in
  let makespan = Assign.Assignment.makespan req.graph expanded assignment in
  let reclaim_moves = moves in
  Result.Ok
    ( { r with assignment; schedule; config; cost = energy_after; makespan },
      Some { expanded; mapping; energy_before; energy_after; reclaim_moves } )

(* rtl.lower, on rtl requests, over the solve table (the expanded one on
   leveled requests: the schedule's steps refer to it). Deterministic, so
   cached responses stay byte-identical. *)
let lower_rtl req table r =
  let design = Rtl.Backend.request req.graph table r.schedule in
  Result.Ok (Some (Rtl.Backend.summarize design))

(* check.validate: the independent audit, when the request or
   HETSCHED_VALIDATE asks for it. The stage runs either way, so traces show
   it ran. Findings do not stop the solve: the response keeps the corrupt
   result next to its violations. *)
let audit req table dvfs r =
  if not (req.validate || Check.Env.enabled ()) then Result.Ok (Ok, [], [])
  else
    let reports =
      audit_reports
        ?dvfs:(Option.map (fun d -> (req.table, d.mapping)) dvfs)
        req.graph table ~deadline:req.deadline r
    in
    let violations =
      List.concat_map (fun rep -> rep.Check.Violation.violations) reports
    in
    let checked =
      List.fold_left (fun n rep -> n + rep.Check.Violation.checked) 0 reports
    in
    let status =
      match violations with
      | [] -> Ok
      | first :: _ ->
          Error
            (Printf.sprintf "validation failed: %d violation(s), first %s"
               (List.length violations) first.Check.Violation.code)
    in
    Result.Ok
      ( status,
        violations,
        [ ("checked", checked); ("violations", List.length violations) ] )

(* --- the chain ----------------------------------------------------------- *)

let base_stats req = [ ("nodes", Dfg.Graph.num_nodes req.graph) ]

(* Transfer cost only when the graph carries edge sizes, energy only on
   leveled requests and rtl_* only on rtl requests, so a response keeps
   the exact stats it had before each of those features existed. *)
let result_stats req r ~dvfs ~rtl =
  List.concat
    [
      base_stats req;
      [
        ("cost", r.cost);
        ("makespan", r.makespan);
        ("config_total", Sched.Config.total r.config);
        ("lower_bound_total", Sched.Config.total r.lower_bound);
      ];
      (if Dfg.Graph.has_data_sizes req.graph then
         [
           ( "transfer_cost",
             Assign.Assignment.transfer_cost req.graph r.assignment );
         ]
       else []);
      (match dvfs with
      | None -> []
      | Some d ->
          [
            ("levels", Fulib.Dvfs.num_expanded d.mapping);
            ("energy", d.energy_after);
            ("energy_saved", d.energy_before - d.energy_after);
            ("reclaim_moves", d.reclaim_moves);
          ]);
      (match rtl with
      | None -> []
      | Some { Rtl.Backend.stats = st; _ } ->
          [
            ("rtl_fu_instances", st.Rtl.Netlist_ir.fu_instances);
            ("rtl_registers", st.Rtl.Netlist_ir.registers);
            ("rtl_mux_count", st.Rtl.Netlist_ir.mux_count);
            ("rtl_mux_inputs", st.Rtl.Netlist_ir.mux_inputs);
            ("rtl_wires", st.Rtl.Netlist_ir.wires);
            ("rtl_unsupported", st.Rtl.Netlist_ir.unsupported_ops);
          ]);
    ]

(* The response of a solve that stopped before it had a result. *)
let stopped req status =
  let stats = base_stats req in
  { result = None; status; violations = []; stats; dvfs = None; rtl = None }

let solve req =
  Obs.Counter.incr c_requests;
  let started = Unix.gettimeofday () in
  (* The one place the budget is checked, before every stage that runs: a
     started stage is never interrupted, so [Some 0] stops before the
     first one. *)
  let stage name f =
    match req.budget_ms with
    | Some ms
      when (Unix.gettimeofday () -. started) *. 1000.0 >= float_of_int ms ->
        stop Timeout
    | _ -> Obs.Span.with_ name f
  in
  let stages () =
    let* expansion =
      match req.levels with
      | None -> Result.Ok None
      | Some levels ->
          stage "dvfs.expand" (fun () -> expand_levels req.table levels)
    in
    let table = match expansion with Some (t, _) -> t | None -> req.table in
    let* assignment = stage "assign" (fun () -> assign_types req table) in
    let* frames =
      stage "sched.frames" (fun () -> frames req table assignment)
    in
    let* r =
      stage "sched.schedule" (fun () -> schedule req table assignment frames)
    in
    let* r, dvfs =
      match expansion with
      | None -> Result.Ok (r, None)
      | Some e -> stage "sched.reclaim" (fun () -> reclaim req e r)
    in
    let* rtl =
      if req.rtl then stage "rtl.lower" (fun () -> lower_rtl req table r)
      else Result.Ok None
    in
    let* status, violations, checks =
      stage "check.validate" (fun () -> audit req table dvfs r)
    in
    let stats = result_stats req r ~dvfs ~rtl @ checks in
    Result.Ok { result = Some r; status; violations; stats; dvfs; rtl }
  in
  let resp =
    match Obs.Span.with_ "synthesis.solve" stages with
    | Result.Ok resp -> resp
    | Result.Error status -> stopped req status
    | exception Assign.Exact.Budget_exhausted -> stopped req Timeout
    | exception e -> stopped req (Error (Printexc.to_string e))
  in
  count_status resp.status;
  resp

(* Phase 1 only, the experiment grid's cell runner: the assign stage on
   the request's own table. Fail-fast audit (the grid's historical
   contract): a corrupt assignment raises rather than being folded into a
   response. *)
let assign req =
  match assign_types req req.table with
  | Result.Error (Error msg) -> invalid_arg msg
  | Result.Error _ -> None
  | Result.Ok a ->
      if req.validate || Check.Env.enabled () then
        Check.Violation.raise_if_failed
          (Check.Assignment.check
             ~expect_cost:(Assign.Assignment.total_cost req.table a)
             req.graph req.table a ~deadline:req.deadline);
      Some a

(* --- periodic requests --------------------------------------------------- *)

type periodic = { request : request; period : int }

let periodic ?scheduler ?validate ?budget_ms ~algorithm ~period
    ~deadline graph table =
  if period < 1 then
    invalid_arg
      (Printf.sprintf "Core.Synthesis.periodic: period %d < 1" period);
  {
    request =
      request ?scheduler ?validate ?budget_ms ~algorithm ~deadline
        graph table;
    period;
  }

(* Synthesis answers are period-independent, so a cached response can be
   classified for any period — solving and classifying are deliberately
   two separate steps. *)
let periodic_of_response ?heavy_threshold p resp =
  match (resp.status, resp.result) with
  | Ok, Some r -> (
      match
        Rt.Task.make ~period:p.period ~deadline:p.request.deadline
          p.request.graph
          (response_table p.request resp)
      with
      | task ->
          Rt.Task.of_schedule ?heavy_threshold task ~schedule:r.schedule
            ~config:r.config
      | exception Invalid_argument msg ->
          Result.Error (Rt.Verdict.Synthesis_error msg))
  | Infeasible, _ | Infeasible_memory, _ ->
      Result.Error Rt.Verdict.Infeasible_deadline
  | Timeout, _ ->
      Result.Error (Rt.Verdict.Synthesis_error "synthesis budget exhausted")
  | Error msg, _ -> Result.Error (Rt.Verdict.Synthesis_error msg)
  | Ok, None ->
      Result.Error (Rt.Verdict.Synthesis_error "Ok response without a result")

let analyse_periodic ?heavy_threshold p =
  periodic_of_response ?heavy_threshold p (solve p.request)

let pp_result ~graph ~table ppf r =
  let names = Dfg.Graph.names graph in
  let library = Fulib.Table.library table in
  let binding = Sched.Binding.bind table r.schedule in
  let registers = Sched.Registers.max_live graph table r.schedule in
  Format.fprintf ppf
    "@[<v>algorithm : %s@,cost      : %d@,makespan  : %d@,config    : %a \
     (lower bound %a)@,registers : %d@,assignment: %a@,%a@,per-FU \
     timelines:@,%a@]"
    (algorithm_name r.algorithm)
    r.cost r.makespan Sched.Config.pp r.config Sched.Config.pp r.lower_bound
    registers
    (Assign.Assignment.pp ~names ~library)
    r.assignment
    (Sched.Schedule.pp ~graph ~table)
    r.schedule
    (Sched.Binding.pp ~graph ~table ~schedule:r.schedule)
    binding
