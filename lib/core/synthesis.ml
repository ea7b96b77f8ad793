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

(* --- budget handling ---------------------------------------------------- *)

(* Exact is the one solver that can disappear into its search tree for
   longer than any phase-boundary check can notice, and the one solver
   with a cooperative node budget; translate milliseconds into expanded
   nodes at a deliberately generous fixed rate so a budgeted Exact request
   degrades to Timeout instead of wedging its pool worker. *)
let exact_nodes_per_ms = 50_000

let exact_budget req =
  match (req.algorithm, req.budget_ms) with
  | Exact, Some ms -> Some (max 1 (ms * exact_nodes_per_ms))
  | _ -> None

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

(* --- the pipeline -------------------------------------------------------- *)

let schedule_phase req table assignment =
  match
    Sched.Asap_alap.frames req.graph table assignment ~deadline:req.deadline
  with
  | None -> None
  | Some frames -> (
      match req.scheduler with
      | List_scheduling ->
          Sched.Min_resource.run ~frames req.graph table assignment
            ~deadline:req.deadline
      | Force_directed ->
          Sched.Force_directed.run ~frames req.graph table assignment
            ~deadline:req.deadline)

let base_stats req = [ ("nodes", Dfg.Graph.num_nodes req.graph) ]

let result_stats ?dvfs req r =
  let base =
    [
      ("nodes", Dfg.Graph.num_nodes req.graph);
      ("cost", r.cost);
      ("makespan", r.makespan);
      ("config_total", Sched.Config.total r.config);
      ("lower_bound_total", Sched.Config.total r.lower_bound);
    ]
  in
  (* data-movement accounting, only meaningful (and only emitted) when the
     graph carries edge sizes — sizeless instances keep their exact
     pre-memory stats *)
  let base =
    if Dfg.Graph.has_data_sizes req.graph then
      base
      @ [
          ( "transfer_cost",
            Assign.Assignment.transfer_cost req.graph r.assignment );
        ]
    else base
  in
  (* energy accounting, only emitted on leveled (DVFS) requests — unleveled
     responses keep their exact pre-DVFS stats *)
  match dvfs with
  | None -> base
  | Some d ->
      base
      @ [
          ("levels", Fulib.Dvfs.num_expanded d.mapping);
          ("energy", d.energy_after);
          ("energy_saved", d.energy_before - d.energy_after);
          ("reclaim_moves", d.reclaim_moves);
        ]

(* Two phases under one span each, with the cooperative budget checked at
   every phase boundary (a started phase is never interrupted; [Some 0]
   therefore times out before Phase 1 begins). Solver exceptions propagate
   out of [solve_raw] — {!solve} is the catch-all boundary. *)
let solve_raw req =
  let started = Unix.gettimeofday () in
  let over_budget () =
    match req.budget_ms with
    | None -> false
    | Some ms -> (Unix.gettimeofday () -. started) *. 1000.0 >= float_of_int ms
  in
  let finish status ?result ?(violations = []) ?dvfs ?rtl stats =
    count_status status;
    { result; status; violations; stats; dvfs; rtl }
  in
  Obs.Counter.incr c_requests;
  Obs.Span.with_
    (Printf.sprintf "synthesis.solve:%s" (algorithm_name req.algorithm))
    (fun () ->
      (* Leveled requests solve over the DVFS-expanded table: a (type,
         level) pair is just one more selectable type, so every algorithm
         is level-aware for free. *)
      let expansion, bad_levels =
        match
          Option.map (fun levels -> Fulib.Dvfs.expand req.table ~levels)
            req.levels
        with
        | expansion -> (expansion, None)
        | exception Invalid_argument msg -> (None, Some ("levels: " ^ msg))
      in
      let table =
        match expansion with None -> req.table | Some (t, _) -> t
      in
      (* levels that slow a time past [Fulib.Table.max_cell], or an
         algorithm that cannot run on this graph, are plain errors, not the
         exception text the expansion or the solver would raise *)
      let applicable =
        match bad_levels with
        | Some msg -> Result.Error msg
        | None -> Assign.Solve.applicable req.algorithm req.graph
      in
      if over_budget () then finish Timeout (base_stats req)
      else if Result.is_error applicable then
        finish (Error (Result.get_error applicable)) (base_stats req)
      else
        let assignment =
          Obs.Span.with_ "phase.assign" (fun () ->
              match
                Assign.Solve.run ?budget:(exact_budget req) req.algorithm
                  req.graph table ~deadline:req.deadline
              with
              | v -> `Assigned v
              | exception Assign.Exact.Budget_exhausted -> `Budget_exhausted)
        in
        match assignment with
        | `Budget_exhausted -> finish Timeout (base_stats req)
        | `Assigned Assign.Solve.Infeasible -> finish Infeasible (base_stats req)
        | `Assigned Assign.Solve.Infeasible_memory ->
            finish Infeasible_memory (base_stats req)
        | `Assigned (Assign.Solve.Feasible assignment) -> (
            if over_budget () then finish Timeout (base_stats req)
            else
              match
                Obs.Span.with_ "phase.schedule" (fun () ->
                    schedule_phase req table assignment)
              with
              | None -> finish Infeasible (base_stats req)
              | Some { Sched.Min_resource.schedule; config; lower_bound } ->
                  if over_budget () then finish Timeout (base_stats req)
                  else
                    let r0 =
                      {
                        algorithm = req.algorithm;
                        assignment;
                        cost = Assign.Assignment.total_cost table assignment;
                        makespan =
                          Assign.Assignment.makespan req.graph table
                            assignment;
                        schedule;
                        config;
                        lower_bound;
                      }
                    in
                    (* Phase 3 on leveled requests: reclaim static slack by
                       stretching non-critical nodes to cheaper sibling
                       levels (starts, config and deadline untouched). *)
                    let r, dvfs =
                      match expansion with
                      | None -> (r0, None)
                      | Some (etable, mapping)
                        when Assign.Assignment.mem_constrained req.graph
                               etable ->
                          (* Re-leveling shifts aggregate data load between
                             sibling types; keep memory-constrained leveled
                             results untouched so Check.Memory's aggregate
                             accounting stays exact. *)
                          ( r0,
                            Some
                              {
                                expanded = etable;
                                mapping;
                                energy_before = r0.cost;
                                energy_after = r0.cost;
                                reclaim_moves = 0;
                              } )
                      | Some (etable, mapping) ->
                          let rc =
                            Obs.Span.with_ "phase.reclaim" (fun () ->
                                Sched.Reclaim.run req.graph etable ~mapping
                                  ~config ~deadline:req.deadline schedule)
                          in
                          let a' =
                            rc.Sched.Reclaim.schedule.Sched.Schedule.assignment
                          in
                          (* Re-leveling shifts occupancy between sibling
                             types, so the per-expanded-type view of the
                             (unchanged) physical allocation is re-derived
                             from the re-leveled schedule. *)
                          let config' =
                            if rc.Sched.Reclaim.moves = 0 then r0.config
                            else
                              Sched.Schedule.peak_usage etable
                                rc.Sched.Reclaim.schedule
                          in
                          ( {
                              r0 with
                              assignment = a';
                              schedule = rc.Sched.Reclaim.schedule;
                              config = config';
                              cost = rc.Sched.Reclaim.energy_after;
                              makespan =
                                Assign.Assignment.makespan req.graph etable a';
                            },
                            Some
                              {
                                expanded = etable;
                                mapping;
                                energy_before = rc.Sched.Reclaim.energy_before;
                                energy_after = rc.Sched.Reclaim.energy_after;
                                reclaim_moves = rc.Sched.Reclaim.moves;
                              } )
                    in
                    (* RTL lowering over the solve table (the expanded one
                       on leveled requests — the schedule's steps refer to
                       it), deterministic so cached responses stay
                       byte-identical. *)
                    let rtl =
                      if not req.rtl then None
                      else
                        Some
                          (Obs.Span.with_ "phase.rtl" (fun () ->
                               Rtl.Backend.summarize
                                 (Rtl.Backend.request req.graph table
                                    r.schedule)))
                    in
                    let rtl_stats =
                      match rtl with
                      | None -> []
                      | Some resp ->
                          let st = resp.Rtl.Backend.stats in
                          [
                            ( "rtl_fu_instances",
                              st.Rtl.Netlist_ir.fu_instances );
                            ("rtl_registers", st.Rtl.Netlist_ir.registers);
                            ("rtl_mux_count", st.Rtl.Netlist_ir.mux_count);
                            ("rtl_mux_inputs", st.Rtl.Netlist_ir.mux_inputs);
                            ("rtl_wires", st.Rtl.Netlist_ir.wires);
                            ( "rtl_unsupported",
                              st.Rtl.Netlist_ir.unsupported_ops );
                          ]
                    in
                    (* The validate span is always present so traces show
                       the phase ran, even when nothing asks for an
                       audit. *)
                    let audit =
                      Obs.Span.with_ "phase.validate" (fun () ->
                          if req.validate || Check.Env.enabled () then
                            Some
                              (audit_reports
                                 ?dvfs:
                                   (Option.map
                                      (fun d -> (req.table, d.mapping))
                                      dvfs)
                                 req.graph table ~deadline:req.deadline r)
                          else None)
                    in
                    (match audit with
                    | None ->
                        finish Ok ~result:r ?dvfs ?rtl
                          (result_stats ?dvfs req r @ rtl_stats)
                    | Some reports ->
                        let violations =
                          List.concat_map
                            (fun rep -> rep.Check.Violation.violations)
                            reports
                        in
                        let checked =
                          List.fold_left
                            (fun acc rep -> acc + rep.Check.Violation.checked)
                            0 reports
                        in
                        let stats =
                          result_stats ?dvfs req r @ rtl_stats
                          @ [
                              ("checked", checked);
                              ("violations", List.length violations);
                            ]
                        in
                        if violations = [] then
                          finish Ok ~result:r ?dvfs ?rtl stats
                        else
                          finish
                            (Error
                               (Printf.sprintf
                                  "validation failed: %d violation(s), \
                                   first %s"
                                  (List.length violations)
                                  (List.hd violations).Check.Violation.code))
                            ~result:r ~violations ?dvfs ?rtl stats)))

let solve req =
  try solve_raw req
  with e ->
    count_status (Error "");
    {
      result = None;
      status = Error (Printexc.to_string e);
      violations = [];
      stats = base_stats req;
      dvfs = None;
      rtl = None;
    }

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

(* Phase 1 only — the experiment grid's cell runner. Fail-fast audit (the
   grid's historical contract): a corrupt assignment raises rather than
   being folded into a response. *)
let assign req =
  match
    Assign.Solve.run ?budget:(exact_budget req) req.algorithm req.graph
      req.table ~deadline:req.deadline
  with
  | Assign.Solve.Infeasible | Assign.Solve.Infeasible_memory -> None
  | Assign.Solve.Feasible a ->
      if req.validate || Check.Env.enabled () then
        Check.Violation.raise_if_failed
          (Check.Assignment.check
             ~expect_cost:(Assign.Assignment.total_cost req.table a)
             req.graph req.table a ~deadline:req.deadline);
      Some a

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
