(* Differential tests for the flat solver layer: the CSR graph views, flat
   table views, flat/incremental DP kernels and threaded ASAP/ALAP frames
   must be bit-identical to the reference (pre-refactor) implementations
   they replaced, which live in the test-only [Oracle] library. *)

let quick name f = Alcotest.test_case name `Quick f

let of_seed f =
  QCheck.make ~print:string_of_int QCheck.Gen.(map abs int) |> fun arb ->
  (arb, f)

let prop name count (arb, f) =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

let instance ?(max_nodes = 12) ?(types = 3) ?(tree = false) seed =
  let rng = Workloads.Prng.create seed in
  let n = 1 + Workloads.Prng.int rng max_nodes in
  let g =
    if tree then Workloads.Random_dfg.random_tree rng ~n ~max_children:3
    else Workloads.Random_dfg.random_dag rng ~n ~extra_edges:3
  in
  let lib =
    Fulib.Library.make (Array.init types (fun i -> Printf.sprintf "T%d" i))
  in
  let tbl =
    Workloads.Tables.random_arbitrary rng ~library:lib ~num_nodes:n ~max_time:4
      ~max_cost:9
  in
  let tmin = Assign.Assignment.min_makespan g tbl in
  let deadline = tmin + Workloads.Prng.int rng 8 in
  (g, tbl, deadline)

let same_opt a b =
  match (a, b) with
  | Some (x, c), Some (y, c') -> x = y && c = c'
  | None, None -> true
  | _ -> false

(* --- CSR view invariants ---------------------------------------------- *)

let csr_matches_lists =
  of_seed (fun seed ->
      let g, _, _ = instance seed in
      let n = Dfg.Graph.num_nodes g in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok :=
          !ok
          && Dfg.Graph.fold_dag_succs g v ~init:[] ~f:(fun acc w -> w :: acc)
             = List.rev (Dfg.Graph.dag_succs g v)
          && Dfg.Graph.fold_dag_preds g v ~init:[] ~f:(fun acc w -> w :: acc)
             = List.rev (Dfg.Graph.dag_preds g v)
          && Dfg.Graph.dag_out_degree g v
             = List.length (Dfg.Graph.dag_succs g v)
          && Dfg.Graph.dag_in_degree g v = List.length (Dfg.Graph.dag_preds g v)
      done;
      !ok
      && Array.to_list (Dfg.Graph.topo_arr g) = Dfg.Topo.sort g
      && (* post order: every zero-delay successor before its node *)
      (let pos = Array.make n 0 in
       List.iteri (fun i v -> pos.(v) <- i) (Dfg.Topo.post_order g);
       List.for_all
         (fun v ->
           Dfg.Graph.fold_dag_succs g v ~init:true ~f:(fun ok w ->
               ok && pos.(w) < pos.(v)))
         (List.init n Fun.id))
      && Array.to_list (Dfg.Graph.roots_arr g) = Dfg.Graph.roots g
      && Array.to_list (Dfg.Graph.leaves_arr g) = Dfg.Graph.leaves g)

(* The flat views of a table against rows rebuilt through [make]: the
   same times, costs and per-node minimum rows (first minimum on ties). *)
let same_flat a b =
  Fulib.Table.num_nodes a = Fulib.Table.num_nodes b
  && Fulib.Table.num_types a = Fulib.Table.num_types b
  && Fulib.Table.flat_times a = Fulib.Table.flat_times b
  && Fulib.Table.flat_costs a = Fulib.Table.flat_costs b
  && Fulib.Table.min_times_arr a = Fulib.Table.min_times_arr b
  && Fulib.Table.min_costs_arr a = Fulib.Table.min_costs_arr b
  && List.for_all
       (fun v ->
         Fulib.Table.min_time_type a v = Fulib.Table.min_time_type b v
         && Fulib.Table.min_cost_type a v = Fulib.Table.min_cost_type b v)
       (List.init (Fulib.Table.num_nodes a) Fun.id)

let rows_of tbl =
  let k = Fulib.Table.num_types tbl in
  let row cell v = Array.init k (fun ftype -> cell tbl ~node:v ~ftype) in
  ( Array.init (Fulib.Table.num_nodes tbl) (row Fulib.Table.time),
    Array.init (Fulib.Table.num_nodes tbl) (row Fulib.Table.cost) )

let first_min row =
  let best = ref 0 in
  Array.iteri (fun t x -> if x < row.(!best) then best := t) row;
  !best

let flat_table_matches =
  of_seed (fun seed ->
      let _, tbl, _ = instance seed in
      let n = Fulib.Table.num_nodes tbl and k = Fulib.Table.num_types tbl in
      let times = Fulib.Table.flat_times tbl in
      let costs = Fulib.Table.flat_costs tbl in
      let mt = Fulib.Table.min_times_arr tbl in
      let mc = Fulib.Table.min_costs_arr tbl in
      let time, cost = rows_of tbl in
      let ok = ref true in
      for v = 0 to n - 1 do
        ok :=
          !ok
          && Fulib.Table.min_time_type tbl v = first_min time.(v)
          && Fulib.Table.min_cost_type tbl v = first_min cost.(v)
          && mt.(v) = time.(v).(first_min time.(v))
          && mc.(v) = cost.(v).(first_min cost.(v));
        for t = 0 to k - 1 do
          ok :=
            !ok
            && times.((v * k) + t) = Fulib.Table.time tbl ~node:v ~ftype:t
            && costs.((v * k) + t) = Fulib.Table.cost tbl ~node:v ~ftype:t
        done
      done;
      let library = Fulib.Table.library tbl in
      let rng = Workloads.Prng.create (seed + 1) in
      (* pin: the node's row collapses to the pinned type's cell *)
      let node = Workloads.Prng.int rng n and ftype = Workloads.Prng.int rng k in
      let pinned_rows rows =
        Array.mapi
          (fun v row -> if v = node then Array.make k row.(ftype) else row)
          rows
      in
      let pin_ok =
        same_flat
          (Fulib.Table.pin tbl ~node ~ftype)
          (Fulib.Table.make ~library ~time:(pinned_rows time)
             ~cost:(pinned_rows cost))
      in
      (* project: tree node i takes original node origin.(i)'s row *)
      let origin =
        Array.init (Workloads.Prng.int rng (2 * n)) (fun _ ->
            Workloads.Prng.int rng n)
      in
      let project_ok =
        same_flat
          (Fulib.Table.project tbl ~origin)
          (Fulib.Table.make ~library
             ~time:(Array.map (fun v -> time.(v)) origin)
             ~cost:(Array.map (fun v -> cost.(v)) origin))
      in
      (* with_mem_capacity: new capacities, the same rows *)
      let caps = Array.init k (fun _ -> Workloads.Prng.int rng 50) in
      let capped = Fulib.Table.with_mem_capacity tbl caps in
      let mem_ok =
        same_flat capped
          (Fulib.Table.make
             ~library:(Fulib.Library.with_mem_capacity library caps)
             ~time ~cost)
        && Fulib.Table.mem_capacities capped = caps
      in
      !ok && pin_ok && project_ok && mem_ok)

(* --- Flat kernels vs references --------------------------------------- *)

let tree_flat_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      same_opt
        (Assign.Tree_assign.solve_with_cost g tbl ~deadline)
        (Oracle.Tree_assign.solve_with_cost_reference g tbl ~deadline))

(* Path_Assign runs on the tree kernel over the reversed chain; it must
   match the prefix DP it replaced in assignment, cost and final DP row,
   with 1-4 types, 1-40 nodes, and deadlines from -3 up (negative and zero
   included). *)
let path_flat_equals_reference =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 40 in
      let k = 1 + Workloads.Prng.int rng 4 in
      let lib = Fulib.Library.make (Array.init k (Printf.sprintf "T%d")) in
      let tbl =
        Workloads.Tables.random_arbitrary rng ~library:lib ~num_nodes:n
          ~max_time:4 ~max_cost:9
      in
      let deadline = Workloads.Prng.int rng (3 * n) - 3 in
      let oracle_row =
        let rows, _ =
          Oracle.Path_assign.dp_reference tbl ~deadline:(max deadline 0)
        in
        rows.(n - 1)
      in
      same_opt
        (Assign.Path_assign.solve_with_cost tbl ~deadline)
        (Oracle.Path_assign.solve_with_cost_reference tbl ~deadline)
      && Assign.Path_assign.cost_profile tbl ~deadline = oracle_row)

let repeat_incremental_equals_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      Assign.Dfg_assign.repeat g tbl ~deadline
      = Oracle.Dfg_assign.repeat_reference g tbl ~deadline)

let repeat_tight_deadlines =
  of_seed (fun seed ->
      (* Sweep deadlines below and above Tmin so infeasible cases and the
         incremental kernel's dirty-row paths are both exercised. *)
      let g, tbl, _ = instance seed in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.for_all
        (fun deadline ->
          Assign.Dfg_assign.repeat g tbl ~deadline
          = Oracle.Dfg_assign.repeat_reference g tbl ~deadline)
        [ tmin - 1; tmin; tmin + 3 ])

(* Every node's DP row agrees with the reference DP's, and the roots' rows
   at the deadline add up to the reference cost. *)
let dp_rows_equal_reference =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      let x, _ = Oracle.Tree_assign.dp_reference g tbl ~deadline in
      let rows =
        Array.init (Dfg.Graph.num_nodes g) (fun node ->
            Assign.Tree_assign.dp_row g tbl ~deadline ~node)
      in
      rows = x
      &&
      match Oracle.Tree_assign.solve_with_cost_reference g tbl ~deadline with
      | Some (_, total) ->
          Array.fold_left
            (fun acc r -> acc + rows.(r).(deadline))
            0 (Dfg.Graph.roots_arr g)
          = total
      | None -> true)

(* A copy starts in its original's state — unsolved, or solved with rows
   dirtied by later pins — and then diverges: pins into the copy leave the
   original alone, and each side solves like a fresh kernel carrying the
   same pins. *)
let copy_is_independent =
  of_seed (fun seed ->
      let g, tbl, deadline = instance ~tree:true seed in
      let n = Dfg.Graph.num_nodes g and k = Fulib.Table.num_types tbl in
      let rng = Workloads.Prng.create (seed lxor 0xc0de) in
      let pin () = (Workloads.Prng.int rng n, Workloads.Prng.int rng k) in
      let pin_all kr =
        List.iter (fun (node, ftype) -> Assign.Tree_kernel.pin kr ~node ~ftype)
      in
      let pinned pins =
        let kr =
          Assign.Tree_kernel.of_table ~parent:(Helpers.forest_parent g) g tbl
            ~deadline
        in
        pin_all kr pins;
        kr
      in
      let before = [ pin () ] and after = [ pin (); pin () ] in
      let master =
        Assign.Tree_kernel.of_table ~parent:(Helpers.forest_parent g) g tbl
          ~deadline
      in
      if seed mod 2 = 0 then ignore (Assign.Tree_kernel.solve master);
      pin_all master before;
      let c = Assign.Tree_kernel.copy master in
      pin_all c after;
      same_opt
        (Assign.Tree_kernel.solve c)
        (Assign.Tree_kernel.solve (pinned (before @ after)))
      && same_opt
           (Assign.Tree_kernel.solve master)
           (Assign.Tree_kernel.solve (pinned before)))

(* --- Windowed rows under pins and refreshes ---------------------------- *)

(* A random forest whose ids are shuffled, so a parent is not always
   numbered below its children; about one node in five is a root. *)
let random_forest rng n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workloads.Prng.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let edges =
    List.concat
      (List.init n (fun i ->
           if i = 0 || Workloads.Prng.int rng 5 = 0 then []
           else
             [
               {
                 Dfg.Graph.src = perm.(Workloads.Prng.int rng i);
                 dst = perm.(i);
                 delay = 0;
                 size = 0;
               };
             ]))
  in
  Dfg.Graph.of_edges ~names:(Array.init n string_of_int) edges

(* The least time among [v]'s allowed types, [None] when all are
   forbidden. *)
let least_time times forbid k v =
  List.fold_left
    (fun acc ty ->
      if forbid.((v * k) + ty) then acc
      else
        let t = times.((v * k) + ty) in
        match acc with Some m when m <= t -> acc | _ -> Some t)
    None (List.init k Fun.id)

(* A kernel driven through random pins, refreshes and solves answers like
   a fresh kernel built on its current rows after every step: solve,
   feasible, every node's type_at, then every node's dp_row. The checks
   run on a copy, so pins and refreshes pile up between the live kernel's
   own solves, and dp_row's full-width recompute cannot hide a window the
   live kernel lacks. Refreshed rows put the node's least time below, at
   or above its creation minimum. *)
let windows_match_fresh =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 1 + Workloads.Prng.int rng 24 in
      let k = 1 + Workloads.Prng.int rng 4 in
      let g = random_forest rng n in
      let times = Array.init (n * k) (fun _ -> Workloads.Prng.int_in rng 2 6) in
      let costs = Array.init (n * k) (fun _ -> Workloads.Prng.int rng 10) in
      let forbid0 =
        if Workloads.Prng.bool rng then Array.make (n * k) false
        else Array.init (n * k) (fun _ -> Workloads.Prng.int rng 4 = 0)
      in
      let created = Array.init n (least_time times forbid0 k) in
      let depth =
        let d = Array.make n 0 in
        Array.iter
          (fun v -> Dfg.Graph.iter_dag_succs g v (fun c -> d.(c) <- d.(v) + 1))
          (Dfg.Graph.topo_arr g);
        Array.fold_left max 0 d + 1
      in
      let deadline = Workloads.Prng.int rng ((6 * depth) + 4) in
      let forbid = Array.copy forbid0 in
      let masked = Array.exists Fun.id forbid0 in
      let live =
        Assign.Tree_kernel.create
          ?forbid:(if masked then Some forbid0 else None)
          (Helpers.forest_parent g) ~times:(Array.copy times)
          ~costs:(Array.copy costs) ~k ~deadline
      in
      let type_at kr node =
        match Assign.Tree_kernel.type_at kr ~node with
        | ty -> Some ty
        | exception Invalid_argument _ -> None
      in
      let agrees () =
        let fresh =
          Assign.Tree_kernel.create
            ?forbid:(if masked then Some forbid else None)
            (Helpers.forest_parent g) ~times:(Array.copy times)
            ~costs:(Array.copy costs) ~k ~deadline
        in
        let probe = Assign.Tree_kernel.copy live in
        let nodes = List.init n Fun.id in
        same_opt
          (Assign.Tree_kernel.solve probe)
          (Assign.Tree_kernel.solve fresh)
        && Assign.Tree_kernel.feasible probe = Assign.Tree_kernel.feasible fresh
        && List.for_all
             (fun node -> type_at probe node = type_at fresh node)
             nodes
        && List.for_all
             (fun node ->
               Assign.Tree_kernel.dp_row probe ~node
               = Assign.Tree_kernel.dp_row fresh ~node)
             nodes
      in
      (* A row for [v] whose least allowed time sits below, at or above
         its creation minimum [m] (below needs m > 1). *)
      let refreshed_row v m =
        let row = Array.init k (fun _ -> Workloads.Prng.int_in rng 1 8) in
        let allowed =
          List.filter (fun ty -> not forbid0.((v * k) + ty)) (List.init k Fun.id)
        in
        (match allowed with
        | [] -> ()
        | _ ->
            let target =
              match Workloads.Prng.int rng 3 with
              | 0 when m > 1 -> Workloads.Prng.int_in rng 1 (m - 1)
              | 1 -> m
              | _ -> m + 1 + Workloads.Prng.int rng 3
            in
            List.iter (fun ty -> row.(ty) <- max row.(ty) target) allowed;
            let pick =
              List.nth allowed (Workloads.Prng.int rng (List.length allowed))
            in
            row.(pick) <- target);
        row
      in
      let step () =
        let v = Workloads.Prng.int rng n in
        match Workloads.Prng.int rng 3 with
        | 0 ->
            let ftype = Workloads.Prng.int rng k in
            Assign.Tree_kernel.pin live ~node:v ~ftype;
            let pt = times.((v * k) + ftype) and pc = costs.((v * k) + ftype) in
            let pf = forbid.((v * k) + ftype) in
            for ty = 0 to k - 1 do
              times.((v * k) + ty) <- pt;
              costs.((v * k) + ty) <- pc;
              forbid.((v * k) + ty) <- pf
            done
        | 1 ->
            let m = Option.value created.(v) ~default:1 in
            let row_t = refreshed_row v m in
            let row_c = Array.init k (fun _ -> Workloads.Prng.int rng 10) in
            Assign.Tree_kernel.refresh live ~node:v ~times:row_t ~costs:row_c;
            Array.blit row_t 0 times (v * k) k;
            Array.blit row_c 0 costs (v * k) k;
            Array.blit forbid0 (v * k) forbid (v * k) k
        | _ -> ignore (Assign.Tree_kernel.solve live)
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 10 do
        if !ok then begin
          step ();
          ok := agrees ()
        end
      done;
      !ok)

(* Early cutoff: a pin that leaves its row unchanged dirties nothing above
   it. On the tree 0 -> {1, 2}, 1 -> {3, 4}, node 3's type 0 is both
   faster and cheaper, so its row takes type 0 at every budget; pinning it
   there recomputes one row. Pinning node 4 to its slow type raises its
   least feasible budget, so the recompute climbs through 1 to the root. *)
let test_cutoff_stops_at_unchanged_row () =
  let times = [| 1; 2; 1; 2; 1; 2; 1; 2; 1; 3 |] in
  let costs = [| 4; 3; 6; 2; 5; 1; 1; 5; 2; 1 |] in
  let kr =
    Assign.Tree_kernel.create [| -1; 0; 0; 1; 1 |] ~times ~costs ~k:2
      ~deadline:12
  in
  let dirty_rows () =
    Option.value (Obs.Counter.value_of "kernel.dirty_rows") ~default:0
  in
  Alcotest.(check bool) "feasible" true (Assign.Tree_kernel.feasible kr);
  let before = dirty_rows () in
  Assign.Tree_kernel.pin kr ~node:3 ~ftype:0;
  Alcotest.(check bool) "still feasible" true (Assign.Tree_kernel.feasible kr);
  Alcotest.(check int) "one row recomputed" 1 (dirty_rows () - before);
  let before = dirty_rows () in
  Assign.Tree_kernel.pin kr ~node:4 ~ftype:1;
  ignore (Assign.Tree_kernel.feasible kr);
  Alcotest.(check int) "a changed row climbs to the root" 3
    (dirty_rows () - before)

(* [create] checks its parent array is a forest: a cycle (a self-loop
   included) or an entry outside [-1, n) is rejected before any row is
   laid out. *)
let test_parent_array_checked () =
  let create parent =
    let n = Array.length parent in
    Assign.Tree_kernel.create parent ~times:(Array.make n 1)
      ~costs:(Array.make n 1) ~k:1 ~deadline:5
  in
  let rejected parent =
    match create parent with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "forest accepted" false (rejected [| -1; 0; 0; -1; 3 |]);
  Alcotest.(check bool) "two-node cycle" true (rejected [| 1; 0; -1 |]);
  Alcotest.(check bool) "self-loop" true (rejected [| -1; 1 |]);
  Alcotest.(check bool) "cycle below a root" true (rejected [| -1; 3; 1; 2 |]);
  Alcotest.(check bool) "parent out of range" true (rejected [| -1; 2 |]);
  Alcotest.(check bool) "parent below -1" true (rejected [| -2 |])

(* A DAG with many sources and one sink: the transpose of a random DAG,
   whose only root becomes the only sink, so the transposed tree (the
   original's forward one) is usually the smaller and [choose_tree] picks
   it. [repeat] and a [Repeat_session] resolve, before and after a retime
   that moves some nodes' times both ways, match the reference, which
   makes its own tree choice from list-based expansions. *)
let transposed_repeat_equals_reference =
  of_seed (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 2 + Workloads.Prng.int rng 40 in
      let g =
        Oracle.Transpose.transpose
          (Workloads.Random_dfg.random_dag rng ~n
             ~extra_edges:(1 + Workloads.Prng.int rng (n / 2)))
      in
      let library = Fulib.Library.standard3 in
      let tbl = Workloads.Tables.random_tradeoff rng ~library ~num_nodes:n in
      let time, cost = rows_of tbl in
      let drifted = Array.map Array.copy time in
      for _ = 1 to 1 + Workloads.Prng.int rng 4 do
        let v = Workloads.Prng.int rng n in
        drifted.(v) <-
          Array.map
            (fun t -> max 1 (t + Workloads.Prng.int_in rng (-2) 3))
            time.(v)
      done;
      let tbl' = Fulib.Table.make ~library ~time:drifted ~cost in
      let tmin = Assign.Assignment.min_makespan g tbl in
      let deadline = tmin + Workloads.Prng.int rng (1 + (tmin / 2)) in
      let reference = Oracle.Dfg_assign.repeat_reference g tbl ~deadline in
      let session = Assign.Dfg_assign.Repeat_session.create g tbl ~deadline in
      let first = Assign.Dfg_assign.Repeat_session.resolve session in
      Assign.Dfg_assign.Repeat_session.retime session tbl';
      Assign.Dfg_assign.repeat g tbl ~deadline = reference
      && first = reference
      && Assign.Dfg_assign.Repeat_session.resolve session
         = Oracle.Dfg_assign.repeat_reference g tbl' ~deadline)

(* The graphs above do exercise the transposed tree. *)
let test_transposed_trees_chosen () =
  let picked = ref 0 in
  for seed = 0 to 99 do
    let rng = Workloads.Prng.create seed in
    let n = 2 + Workloads.Prng.int rng 40 in
    let g =
      Oracle.Transpose.transpose
        (Workloads.Random_dfg.random_dag rng ~n
           ~extra_edges:(1 + Workloads.Prng.int rng (n / 2)))
    in
    match Assign.Dfg_assign.choose_tree g with
    | Assign.Dfg_assign.Transposed, _ -> incr picked
    | Forward, _ -> ()
  done;
  Alcotest.(check bool) "most pick the transposed tree" true (!picked > 50)

let frames_equal_asap_alap =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      match Assign.Dfg_assign.once g tbl ~deadline with
      | None -> true
      | Some a -> (
          match
            ( Sched.Asap_alap.frames g tbl a ~deadline,
              Sched.Asap_alap.alap g tbl a ~deadline )
          with
          | Some (asap, alap), Some alap' ->
              asap = Sched.Asap_alap.asap g tbl a && alap = alap'
          | None, None -> true
          | _ -> false))

let min_resource_frames_threading =
  of_seed (fun seed ->
      let g, tbl, deadline = instance seed in
      match Assign.Dfg_assign.once g tbl ~deadline with
      | None -> true
      | Some a -> (
          let plain = Sched.Min_resource.run g tbl a ~deadline in
          let threaded =
            match Sched.Asap_alap.frames g tbl a ~deadline with
            | None -> None
            | Some frames -> Sched.Min_resource.run ~frames g tbl a ~deadline
          in
          match (plain, threaded) with
          | Some r, Some r' ->
              r.Sched.Min_resource.schedule = r'.Sched.Min_resource.schedule
              && r.config = r'.config
              && r.lower_bound = r'.lower_bound
          | None, None -> true
          | _ -> false))

(* --- The six paper benchmarks ----------------------------------------- *)

let benchmark_table (name, g) =
  let seed =
    String.fold_left (fun acc c -> (acc * 31) + Char.code c) 17 name
  in
  let rng = Workloads.Prng.create seed in
  Workloads.Tables.for_graph rng ~library:Fulib.Library.standard3 g

let test_repeat_on_benchmarks () =
  List.iter
    (fun (name, g) ->
      let tbl = benchmark_table (name, g) in
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.iter
        (fun deadline ->
          let inc = Assign.Dfg_assign.repeat g tbl ~deadline in
          let ref_ = Oracle.Dfg_assign.repeat_reference g tbl ~deadline in
          Alcotest.(check bool)
            (Printf.sprintf "%s T=%d incremental = reference" name deadline)
            true (inc = ref_);
          match inc with
          | None -> ()
          | Some a ->
              Alcotest.(check bool)
                (Printf.sprintf "%s T=%d cost identical" name deadline)
                true
                (Option.map
                   (Assign.Assignment.total_cost tbl)
                   ref_
                = Some (Assign.Assignment.total_cost tbl a)))
        [ tmin; tmin + (tmin / 4); tmin + (tmin / 2) ])
    (Workloads.Filters.all ())

(* Inline-sized DAGs whose trees carry at least 20 duplicated nodes: long
   fixing sequences, where each duplicated node's copies are read back by
   a per-copy traceback, must match the whole-tree reference. *)
let test_repeat_many_duplicates () =
  List.iter
    (fun seed ->
      let rng = Workloads.Prng.create seed in
      let n = 80 + (20 * (seed mod 4)) in
      let g = Workloads.Random_dfg.random_dag rng ~n ~extra_edges:(n / 3) in
      let tbl =
        Workloads.Tables.random_tradeoff rng ~library:Fulib.Library.standard3
          ~num_nodes:n
      in
      let _, tree = Assign.Dfg_assign.choose_tree g in
      let dups = List.length (Dfg.Expand.duplicated_nodes tree) in
      if dups < 20 then
        Alcotest.failf "seed %d: only %d duplicated nodes" seed dups;
      let tmin = Assign.Assignment.min_makespan g tbl in
      List.iter
        (fun deadline ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d (%d dups) T=%d" seed dups deadline)
            true
            (Assign.Dfg_assign.repeat g tbl ~deadline
            = Oracle.Dfg_assign.repeat_reference g tbl ~deadline))
        [ tmin; tmin + (tmin / 4); tmin + (tmin / 2) ])
    (List.init 8 Fun.id)

let test_synthesis_config_on_benchmarks () =
  (* Full two-phase runs stay unchanged under the threaded frames: the
     configurations Table 1/2 report are derived from these. *)
  List.iter
    (fun (name, g) ->
      let tbl = benchmark_table (name, g) in
      let tmin = Assign.Assignment.min_makespan g tbl in
      let deadline = tmin + (tmin / 4) in
      match
        (Core.Synthesis.solve
           (Core.Synthesis.request ~algorithm:Core.Synthesis.Repeat ~deadline
              g tbl))
          .Core.Synthesis.result
      with
      | None ->
          Alcotest.failf "%s: synthesis infeasible at T=%d" name deadline
      | Some r ->
          let a = r.Core.Synthesis.assignment in
          let expected =
            match Sched.Min_resource.run g tbl a ~deadline with
            | Some m -> m.Sched.Min_resource.config
            | None -> Alcotest.failf "%s: scheduling infeasible" name
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s config unchanged" name)
            (Array.to_list expected)
            (Array.to_list r.Core.Synthesis.config))
    (Workloads.Filters.all ())

let () =
  Alcotest.run "kernel"
    [
      ( "csr",
        [
          prop "csr adjacency/orders/roots match list views" 300
            csr_matches_lists;
          prop "flat table views match accessors" 300 flat_table_matches;
        ] );
      ( "flat kernels",
        [
          prop "tree flat DP = reference" 400 tree_flat_equals_reference;
          prop "path flat DP = reference" 400 path_flat_equals_reference;
          prop "incremental repeat = reference" 300
            repeat_incremental_equals_reference;
          prop "incremental repeat = reference (deadline sweep)" 200
            repeat_tight_deadlines;
          prop "dp_row = reference rows" 200 dp_rows_equal_reference;
          prop "kernel copy is independent" 200 copy_is_independent;
          prop "windowed rows = fresh kernel under pins and refreshes" 400
            windows_match_fresh;
          quick "early cutoff stops at an unchanged row"
            test_cutoff_stops_at_unchanged_row;
          quick "parent arrays that are not forests are rejected"
            test_parent_array_checked;
          prop "transposed repeat and session = reference" 200
            transposed_repeat_equals_reference;
          quick "many-source DAGs pick the transposed tree"
            test_transposed_trees_chosen;
        ] );
      ( "frames",
        [
          prop "frames = (asap, alap)" 300 frames_equal_asap_alap;
          prop "min-resource with threaded frames unchanged" 200
            min_resource_frames_threading;
        ] );
      ( "benchmarks",
        [
          quick "incremental repeat = reference on all six"
            test_repeat_on_benchmarks;
          quick "incremental repeat = reference, >= 20 duplicated nodes"
            test_repeat_many_duplicates;
          quick "synthesis configurations unchanged"
            test_synthesis_config_on_benchmarks;
        ] );
    ]
