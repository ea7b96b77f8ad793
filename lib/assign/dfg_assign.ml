type orientation = Forward | Transposed

let c_repeat_runs = Obs.Counter.make "repeat.runs"
let c_session_resolves = Obs.Counter.make "repeat.session_resolves"
let c_session_refreshed = Obs.Counter.make "repeat.session_refreshed_nodes"
let c_search_rounds = Obs.Counter.make "repeat_search.rounds"
let c_search_candidates = Obs.Counter.make "repeat_search.candidates"

let expand_oriented ?max_nodes orientation g =
  match orientation with
  | Forward -> Dfg.Expand.expand ?max_nodes g
  | Transposed -> Dfg.Expand.expand ?max_nodes (Dfg.Transpose.transpose g)

(* Count both orientations' trees, build only the smaller. Building both
   used to raise [Too_large] when either exceeded the bound, so the counts
   keep that contract. *)
let choose_tree ?(max_nodes = Dfg.Expand.default_max_nodes) g =
  let forward, transposed = Dfg.Expand.tree_sizes ~max_nodes g in
  let over size = size > 0 && size > max_nodes in
  if over forward || over transposed then
    raise (Dfg.Expand.Too_large max_nodes);
  let orientation = if forward <= transposed then Forward else Transposed in
  (orientation, expand_oriented ~max_nodes orientation g)

(* Among the tree copies of original node [v], pick the type with minimum
   execution time; break ties toward lower cost, then lower type index, so
   the choice is deterministic. [type_of c] is copy [c]'s tree type. *)
let min_time_choice table type_of copies v =
  let better t t' =
    let time ty = Fulib.Table.time table ~node:v ~ftype:ty in
    let cost ty = Fulib.Table.cost table ~node:v ~ftype:ty in
    if time t' < time t then t'
    else if time t' = time t && (cost t' < cost t || (cost t' = cost t && t' < t))
    then t'
    else t
  in
  match copies with
  | [] -> invalid_arg "Dfg_assign: node without copies"
  | c :: rest ->
      List.fold_left (fun acc c' -> better acc (type_of c')) (type_of c) rest

(* Fill the nodes of [a] not fixed yet ([-1]) from the tree assignment
   [ta]: a single copy's type, else the min-time choice among the copies. *)
let complete table tree ta a =
  Array.iteri
    (fun v copies ->
      if a.(v) < 0 then
        match copies with
        | [ c ] -> a.(v) <- ta.(c)
        | copies -> a.(v) <- min_time_choice table (Array.get ta) copies v)
    tree.Dfg.Expand.copies

(* The kernel on [g]'s expanded tree: copy [i] stands for original node
   [origin.(i)], whose rows and footprint it takes. *)
let tree_kernel tree g table ~deadline =
  Tree_kernel.of_table ~tree:tree.Dfg.Expand.graph
    ~origin:tree.Dfg.Expand.origin g table ~deadline

let once_on_tree tree g table ~deadline =
  let solved =
    if deadline < 0 then None
    else if Dfg.Graph.num_nodes tree.Dfg.Expand.graph = 0 then Some [||]
    else
      Option.map fst (Tree_kernel.solve (tree_kernel tree g table ~deadline))
  in
  match solved with
  | None -> None
  | Some ta ->
      let a = Array.make (Dfg.Graph.num_nodes g) (-1) in
      complete table tree ta a;
      Some a

let once_oriented ?max_nodes orientation g table ~deadline =
  let tree = expand_oriented ?max_nodes orientation g in
  once_on_tree tree g table ~deadline

let once ?max_nodes g table ~deadline =
  let _, tree = choose_tree ?max_nodes g in
  once_on_tree tree g table ~deadline

let order_dups tree order dups =
  match order with
  | `By_id -> dups
  | `By_copies ->
      (* Greatest copy count first; stable on ties (ascending id). *)
      List.stable_sort
        (fun u v ->
          compare (Dfg.Expand.copy_count tree v) (Dfg.Expand.copy_count tree u))
        dups
  | `Reverse ->
      List.rev
        (List.stable_sort
           (fun u v ->
             compare
               (Dfg.Expand.copy_count tree v)
               (Dfg.Expand.copy_count tree u))
           dups)

(* The [DFG_Assign_Repeat] fixing loop over a live kernel: for each
   duplicated node in [dups], re-solve the rows dirtied by earlier pins,
   trace back only that node's copies (O(depth) each, not the whole tree),
   and pin all of them to their min-time choice; then one full solve
   assigns the remaining nodes. [None] when a solve cannot meet the
   deadline. *)
let fix_duplicates kernel tree table dups ~n =
  let a = Array.make n (-1) in
  let exception Infeasible in
  try
    List.iter
      (fun v ->
        if not (Tree_kernel.feasible kernel) then raise Infeasible;
        let copies = tree.Dfg.Expand.copies.(v) in
        let t =
          min_time_choice table
            (fun c -> Tree_kernel.type_at kernel ~node:c)
            copies v
        in
        a.(v) <- t;
        List.iter
          (fun copy -> Tree_kernel.pin kernel ~node:copy ~ftype:t)
          copies)
      dups;
    match Tree_kernel.solve kernel with
    | None -> None
    | Some (ta, _) ->
        complete table tree ta a;
        Some a
  with Infeasible -> None

(* [DFG_Assign_Repeat], incremental: one kernel is created for the expanded
   tree, and each pinning pass re-solves only the DP rows of the pinned
   copies' ancestor chains (the rows below them are unaffected by the pin),
   instead of re-running the whole O(n·T·K) DP per duplicated node. *)
let repeat_with_order ?max_nodes ~order g table ~deadline =
  if deadline < 0 then None
  else begin
    Obs.Counter.incr c_repeat_runs;
    let _, tree = choose_tree ?max_nodes g in
    let dups = order_dups tree order (Dfg.Expand.duplicated_nodes tree) in
    let n = Dfg.Graph.num_nodes g in
    if n = 0 then Some [||]
    else fix_duplicates (tree_kernel tree g table ~deadline) tree table dups ~n
  end

let repeat ?max_nodes g table ~deadline =
  repeat_with_order ?max_nodes ~order:`By_copies g table ~deadline

(* --- Candidate-search Repeat ---------------------------------------- *)

(* [DFG_Assign_Repeat] with a per-round candidate search: instead of fixing
   the duplicated nodes in a static order, each round re-solves the tree
   once per remaining duplicated node (that node pinned to its min-time
   choice under the current solve) and commits the candidate whose re-solve
   is cheapest — ties broken toward the lower node id. Each candidate pins
   and re-solves a private copy of the master kernel, so a round's
   candidates fan out over [pool]'s domains; the winner is picked from the
   order-preserved score array, which makes the parallel path bit-identical
   to the sequential one. *)
let repeat_search ?pool ?max_nodes g table ~deadline =
  if deadline < 0 then None
  else begin
    let n = Dfg.Graph.num_nodes g in
    if n = 0 then Some [||]
    else begin
      let pool =
        match pool with Some p -> p | None -> Par.Pool.global ()
      in
      let _, tree = choose_tree ?max_nodes g in
      (* the master kernel, pinned as winners are committed *)
      let master = tree_kernel tree g table ~deadline in
      let pin kernel v t =
        List.iter
          (fun copy -> Tree_kernel.pin kernel ~node:copy ~ftype:t)
          tree.Dfg.Expand.copies.(v)
      in
      let a = Array.make n (-1) in
      let exception Infeasible in
      try
        let remaining =
          ref (List.sort compare (Dfg.Expand.duplicated_nodes tree))
        in
        while !remaining <> [] do
          Obs.Counter.incr c_search_rounds;
          match Tree_kernel.solve master with
          | None -> raise Infeasible
          | Some (ta, _) ->
              let cands = Array.of_list !remaining in
              Obs.Counter.add c_search_candidates (Array.length cands);
              let choice =
                Array.map
                  (fun v ->
                    min_time_choice table (Array.get ta)
                      tree.Dfg.Expand.copies.(v) v)
                  cands
              in
              let scores =
                Par.Pool.map_array pool
                  (fun idx ->
                    let kernel = Tree_kernel.copy master in
                    pin kernel cands.(idx) choice.(idx);
                    Option.map snd (Tree_kernel.solve kernel))
                  (Array.init (Array.length cands) Fun.id)
              in
              let best = ref (-1) in
              Array.iteri
                (fun i s ->
                  match (s, !best) with
                  | None, _ -> ()
                  | Some _, -1 -> best := i
                  | Some c, b -> (
                      match scores.(b) with
                      | Some cb when cb <= c -> ()
                      | _ -> best := i))
                scores;
              if !best < 0 then raise Infeasible;
              let v = cands.(!best) and t = choice.(!best) in
              a.(v) <- t;
              pin master v t;
              remaining := List.filter (fun u -> u <> v) !remaining
        done;
        match Tree_kernel.solve master with
        | None -> raise Infeasible
        | Some (ta, _) ->
            complete table tree ta a;
            Some a
      with Infeasible -> None
    end
  end

(* --- Reusable Repeat session (online re-solve) ----------------------- *)

(* A [Repeat] run split into a long-lived session: the expanded tree, the
   fixing order, the placement mask, and the kernel survive across solves,
   so when execution times drift at run time only the perturbed nodes'
   copies (plus previously pinned duplicates) are [Tree_kernel.refresh]ed
   and the DP recomputes just their ancestor chains — no re-expansion, no
   re-allocation, no full first DP. [resolve] replays the exact pin
   sequence of [repeat_with_order ~order:`By_copies], so its result is
   bit-identical to a from-scratch [repeat] on the session's current
   table. *)
module Repeat_session = struct
  type t = {
    tree : Dfg.Expand.tree;
    dups : int list;  (* `By_copies` fixing order *)
    k : int;
    n : int;
    kernel : Tree_kernel.t;
    mutable table : Fulib.Table.t;  (* unpinned table the kernel rows mirror *)
    mutable pinned : bool;  (* a resolve has pinned duplicate copies *)
    mutable cached : Assignment.t option option;  (* None = replay needed *)
  }

  let create ?max_nodes g table ~deadline =
    if deadline < 0 then
      invalid_arg "Repeat_session.create: negative deadline";
    let _, tree = choose_tree ?max_nodes g in
    let dups = order_dups tree `By_copies (Dfg.Expand.duplicated_nodes tree) in
    {
      tree;
      dups;
      k = Fulib.Table.num_types table;
      n = Dfg.Graph.num_nodes g;
      kernel = tree_kernel tree g table ~deadline;
      table;
      pinned = false;
      cached = None;
    }

  let retime t table' =
    if
      Fulib.Table.num_types table' <> t.k
      || Fulib.Table.num_nodes table' <> t.n
    then invalid_arg "Repeat_session.retime: table shape mismatch";
    if Fulib.Table.mem_capacities table' <> Fulib.Table.mem_capacities t.table
    then invalid_arg "Repeat_session.retime: memory capacities changed";
    let ft' = Fulib.Table.flat_times table'
    and fc' = Fulib.Table.flat_costs table' in
    let ft = Fulib.Table.flat_times t.table
    and fc = Fulib.Table.flat_costs t.table in
    let changed v =
      let off = v * t.k in
      let d = ref false in
      for i = 0 to t.k - 1 do
        if ft'.(off + i) <> ft.(off + i) || fc'.(off + i) <> fc.(off + i) then
          d := true
      done;
      !d
    in
    let refresh_copies v =
      Obs.Counter.incr c_session_refreshed;
      let times = Array.sub ft' (v * t.k) t.k
      and costs = Array.sub fc' (v * t.k) t.k in
      List.iter
        (fun c -> Tree_kernel.refresh t.kernel ~node:c ~times ~costs)
        t.tree.Dfg.Expand.copies.(v)
    in
    for v = 0 to t.n - 1 do
      if changed v then refresh_copies v
    done;
    (* Pinned duplicate rows no longer mirror any table: restore them even
       when their table rows did not change, so [resolve] replays the pin
       sequence against clean rows. *)
    if t.pinned then
      List.iter (fun v -> if not (changed v) then refresh_copies v) t.dups;
    t.pinned <- false;
    t.cached <- None;
    t.table <- table'

  let resolve t =
    match t.cached with
    | Some res -> Option.map Array.copy res
    | None ->
        Obs.Counter.incr c_session_resolves;
        let res =
          if t.n = 0 then Some [||]
          else begin
            if t.dups <> [] then t.pinned <- true;
            fix_duplicates t.kernel t.tree t.table t.dups ~n:t.n
          end
        in
        t.cached <- Some res;
        Option.map Array.copy res
end
