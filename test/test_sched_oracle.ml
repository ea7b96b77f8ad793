(* Differential tests for the linear-time phase-2 kernels and the counting
   tree choice: [Sched.Lower_bound.per_type], [Sched.Min_resource.run] and
   [Assign.Dfg_assign.choose_tree] must equal their pre-rewrite versions in
   [Sched_oracle] exactly, and the new [Tree_kernel] feasibility step and
   per-node traceback must agree with a full [Tree_kernel.solve]. *)

let prop name count f =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count
       (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int))
       f)

(* A random DAG with at most 140 nodes and up to n/3 extra edges, a random
   table (monotone trade-off over three types, or arbitrary over one to
   four types with multi-cycle times), a deadline factor in 1.0..2.0, and
   [pipelined] off or on for a random subset of the types. *)
let instance seed =
  let r = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int r 140 in
  let g =
    Workloads.Random_dfg.random_dag r ~n
      ~extra_edges:(Workloads.Prng.int r ((n / 3) + 1))
  in
  let tbl =
    if Workloads.Prng.int r 2 = 0 then
      Workloads.Tables.random_tradeoff r ~library:Fulib.Library.standard3
        ~num_nodes:n
    else
      let k = Workloads.Prng.int_in r 1 4 in
      let lib =
        Fulib.Library.make (Array.init k (fun i -> Printf.sprintf "T%d" i))
      in
      Oracle.Tables.random_arbitrary r ~library:lib ~num_nodes:n
        ~max_time:(Workloads.Prng.int_in r 1 6) ~max_cost:20
  in
  let factor = 1.0 +. Workloads.Prng.float r in
  let tmin = Core.Synthesis.min_deadline g tbl in
  let deadline = max tmin (int_of_float (factor *. float_of_int tmin)) in
  let pipelined =
    if Workloads.Prng.int r 2 = 0 then None
    else
      let on =
        Array.init (Fulib.Table.num_types tbl) (fun _ -> Workloads.Prng.int r 2 = 0)
      in
      Some (Array.get on)
  in
  (g, tbl, deadline, pipelined)

let assignments g tbl ~deadline =
  List.filter_map Fun.id
    [
      Assign.Dfg_assign.repeat g tbl ~deadline;
      Assign.Dfg_assign.once g tbl ~deadline;
      Assign.Greedy.solve g tbl ~deadline;
    ]

let same_result (a : Sched.Min_resource.result option)
    (b : Sched.Min_resource.result option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.schedule.start = b.schedule.start
      && a.schedule.assignment = b.schedule.assignment
      && a.config = b.config
      && a.lower_bound = b.lower_bound
  | _ -> false

(* Each assignment is checked at its own deadline, one step tighter (often
   infeasible) and with a generous deadline, with and without threaded
   frames. *)
let phase2_matches_oracle seed =
  let g, tbl, deadline, pipelined = instance seed in
  List.for_all
    (fun a ->
      List.for_all
        (fun deadline ->
          let frames = Sched.Asap_alap.frames g tbl a ~deadline in
          Sched.Lower_bound.per_type ?pipelined g tbl a ~deadline
          = Oracle.Sched_oracle.per_type ?pipelined g tbl a ~deadline
          && same_result
               (Sched.Min_resource.run ?pipelined g tbl a ~deadline)
               (Oracle.Sched_oracle.run ?pipelined g tbl a ~deadline)
          && same_result
               (Sched.Min_resource.run ?pipelined ?frames g tbl a ~deadline)
               (Oracle.Sched_oracle.run ?pipelined ?frames g tbl a ~deadline))
        [ deadline; deadline - 1; 2 * deadline ])
    (assignments g tbl ~deadline)

let tree_shape (o, (t : Dfg.Expand.tree)) = (o, t.parent, t.origin, t.copies)

let choice ~max_nodes g f =
  match f ~max_nodes g with
  | o, (t : Dfg.Expand.tree) -> Ok (o, Array.length t.origin)
  | exception Dfg.Expand.Too_large m -> Error m

let choose_tree_matches_oracle seed =
  let r = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int r 60 in
  let g =
    Workloads.Random_dfg.random_dag r ~n
      ~extra_edges:(Workloads.Prng.int r ((n / 3) + 1))
  in
  let fresh = Assign.Dfg_assign.choose_tree g in
  let old = Oracle.Sched_oracle.choose_tree g in
  let forward, transposed =
    Dfg.Expand.tree_sizes ~max_nodes:Dfg.Expand.default_max_nodes g
  in
  (* the same tree, and the counts are the built trees' sizes *)
  tree_shape fresh = tree_shape old
  && forward
     = Array.length (Oracle.Sched_oracle.expand_oriented Forward g).origin
  && transposed
     = Array.length (Oracle.Sched_oracle.expand_oriented Transposed g).origin
  &&
  (* bounds around both sizes: raise exactly when the oracle does *)
  let lo = min forward transposed and hi = max forward transposed in
  List.for_all
    (fun max_nodes ->
      choice ~max_nodes g (fun ~max_nodes ->
          Assign.Dfg_assign.choose_tree ~max_nodes)
      = choice ~max_nodes g (fun ~max_nodes ->
            Oracle.Sched_oracle.choose_tree ~max_nodes))
    [ 0; lo - 1; lo; (lo + hi) / 2; hi - 1; hi; hi + 1 ]

(* A chain feeding a fan of leaves: the forward tree is the graph itself,
   but every leaf path repeats the chain in the transposed tree. *)
let test_only_transposed_too_large () =
  let chain = 10 and fan = 10 in
  let edges =
    List.init (chain - 1) (fun i -> (i, i + 1))
    @ List.init fan (fun j -> (chain - 1, chain + j))
  in
  let g = Helpers.graph (chain + fan) edges in
  let forward, transposed = Dfg.Expand.tree_sizes ~max_nodes:1000 g in
  Alcotest.(check (pair int int))
    "sizes" (20, fan + (fan * chain)) (forward, transposed);
  let raises f =
    match f () with _ -> false | exception Dfg.Expand.Too_large 50 -> true
  in
  Alcotest.(check bool) "oracle raises" true
    (raises (fun () -> Oracle.Sched_oracle.choose_tree ~max_nodes:50 g));
  Alcotest.(check bool) "choose_tree raises" true
    (raises (fun () -> Assign.Dfg_assign.choose_tree ~max_nodes:50 g));
  match Assign.Dfg_assign.choose_tree ~max_nodes:110 g with
  | Forward, t ->
      Alcotest.(check int) "forward tree at the bound" 20
        (Array.length t.origin)
  | Transposed, _ -> Alcotest.fail "picked the larger tree"

(* Saturation: a ladder of diamonds has 2^k paths; the counts must cap at
   [max_nodes + 1] instead of overflowing, and the choice must raise. *)
let test_exponential_paths_saturate () =
  let k = 70 in
  let edges =
    List.concat
      (List.init k (fun i ->
           let a = 3 * i in
           [ (a, a + 1); (a, a + 2); (a + 1, a + 3); (a + 2, a + 3) ]))
  in
  let g = Helpers.graph ((3 * k) + 1) edges in
  Alcotest.(check (pair int int)) "saturated" (1001, 1001)
    (Dfg.Expand.tree_sizes ~max_nodes:1000 g);
  Alcotest.(check (pair int int)) "saturated at max_int" (max_int, max_int)
    (Dfg.Expand.tree_sizes ~max_nodes:max_int g);
  Alcotest.check_raises "too large" (Dfg.Expand.Too_large 1000) (fun () ->
      ignore (Assign.Dfg_assign.choose_tree ~max_nodes:1000 g))

(* [feasible] and [type_at] agree with a full solve after every pin of a
   random pin sequence. *)
let kernel_traceback_matches_solve seed =
  let g, tbl, deadline, _ = instance seed in
  let _, tree = Assign.Dfg_assign.choose_tree g in
  let origin = tree.Dfg.Expand.origin in
  let k = Fulib.Table.num_types tbl in
  let tn = Array.length origin in
  let row flat =
    Array.init (tn * k) (fun i -> flat.((origin.(i / k) * k) + (i mod k)))
  in
  let kernel =
    Assign.Tree_kernel.create tree.Dfg.Expand.parent
      ~times:(row (Fulib.Table.flat_times tbl))
      ~costs:(row (Fulib.Table.flat_costs tbl))
      ~k
      ~deadline:(max 0 (deadline - (seed mod 3)))
  in
  let r = Workloads.Prng.create (seed lxor 0x5eed) in
  let agrees () =
    match Assign.Tree_kernel.solve kernel with
    | None -> not (Assign.Tree_kernel.feasible kernel)
    | Some (ta, _) ->
        Assign.Tree_kernel.feasible kernel
        && Array.for_all Fun.id
             (Array.init tn (fun c ->
                  Assign.Tree_kernel.type_at kernel ~node:c = ta.(c)))
  in
  tn = 0
  || List.for_all
       (fun _ ->
         let ok = agrees () in
         Assign.Tree_kernel.pin kernel ~node:(Workloads.Prng.int r tn)
           ~ftype:(Workloads.Prng.int r k);
         ok)
       (List.init 6 Fun.id)
     && agrees ()

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "sched_oracle"
    [
      ( "phase 2",
        [
          prop "bound and schedule = pre-rewrite oracle" 150
            phase2_matches_oracle;
        ] );
      ( "choose_tree",
        [
          prop "same tree and Too_large as building both" 200
            choose_tree_matches_oracle;
          quick "only the transposed tree too large"
            test_only_transposed_too_large;
          quick "exponential path counts saturate"
            test_exponential_paths_saturate;
        ] );
      ( "tree kernel",
        [
          prop "feasible/type_at = full solve under pins" 200
            kernel_traceback_matches_solve;
        ] );
    ]
