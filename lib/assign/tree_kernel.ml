let infeasible = max_int

(* Observability: one bump per unit of DP work, so the incremental
   re-solve contract ([pin] dirties only an ancestor chain) is visible in
   [Obs.Counter.snapshot] — kernel.rows counts every DP row computed,
   kernel.dirty_rows only those recomputed because a pin dirtied them. *)
let c_solves = Obs.Counter.make "kernel.solves"
let c_rows = Obs.Counter.make "kernel.rows"
let c_dirty_rows = Obs.Counter.make "kernel.dirty_rows"
let c_pins = Obs.Counter.make "kernel.pins"
let c_refreshes = Obs.Counter.make "kernel.refreshes"
let c_dirty_walk = Obs.Counter.make "kernel.dirty_ancestors"

(* Flat, mutable DP state for [Tree_Assign] over a forest. All matrices are
   single int arrays in row-major [node * (deadline + 1) + budget] layout,
   allocated once at [create] and reused across re-solves. [pin] mutates
   the kernel's own time/cost rows and dirties only the pinned node and its
   ancestor chain, so a re-solve after pinning recomputes O(depth) DP rows
   instead of all n — the incremental heart of [DFG_Assign_Repeat]. *)
type t = {
  g : Dfg.Graph.t;
  n : int;
  k : int;
  deadline : int;
  times : int array;  (* n*k, owned: pin/refresh write here *)
  costs : int array;  (* n*k, owned *)
  forbid : bool array;  (* n*k placement mask, owned; empty = none *)
  forbid0 : bool array;  (* pristine copy of [forbid]: refresh restores from it *)
  parent : int array;  (* -1 for roots; well-defined on a forest *)
  chain : int array;  (* scratch: one node's root path for [type_at] *)
  x : int array;  (* n*(deadline+1) subtree costs; [infeasible] = none *)
  choice : int array;  (* n*(deadline+1) chosen type; -1 = none *)
  combined : int array;  (* scratch: children cost sums per budget *)
  dirty : bool array;
  mutable unsolved : bool;  (* no DP rows computed yet *)
  mutable any_dirty : bool;
}

let create ?forbid g ~times ~costs ~k ~deadline =
  if not (Dfg.Graph.is_tree g) then
    invalid_arg "Tree_kernel: DAG portion is not a forest";
  if deadline < 0 then invalid_arg "Tree_kernel: negative deadline";
  let n = Dfg.Graph.num_nodes g in
  if Array.length times <> n * k || Array.length costs <> n * k then
    invalid_arg "Tree_kernel: flat table size mismatch";
  let forbid =
    match forbid with
    | None -> [||]
    | Some f ->
        if Array.length f <> n * k then
          invalid_arg "Tree_kernel: forbid mask size mismatch";
        Array.copy f
  in
  let parent = Array.make n (-1) in
  let pred_off, pred_tgt = Dfg.Graph.csr_preds g in
  for v = 0 to n - 1 do
    if pred_off.(v + 1) > pred_off.(v) then parent.(v) <- pred_tgt.(pred_off.(v))
  done;
  let w = deadline + 1 in
  {
    g;
    n;
    k;
    deadline;
    times;
    costs;
    forbid;
    forbid0 = Array.copy forbid;
    parent;
    chain = Array.make n 0;
    x = Array.make (n * w) infeasible;
    choice = Array.make (n * w) (-1);
    combined = Array.make w 0;
    dirty = Array.make n false;
    unsolved = true;
    any_dirty = false;
  }

let deadline t = t.deadline

(* One DP row: X_v(j) = min over types of cost(v,t) + sum over children c of
   X_c(j - time(v,t)), matching the reference [Tree_assign.dp] recurrence
   (and its first-minimum tie-breaking) exactly. *)
let compute_row t v =
  let w = t.deadline + 1 in
  let base = v * w in
  let succ_off, succ_tgt = Dfg.Graph.csr_succs t.g in
  let lo = succ_off.(v) and hi = succ_off.(v + 1) in
  if lo = hi then Array.fill t.combined 0 w 0
  else
    for j = 0 to t.deadline do
      let sum = ref 0 in
      let i = ref lo in
      while !i < hi do
        let c = succ_tgt.(!i) in
        let xc = t.x.((c * w) + j) in
        if !sum = infeasible || xc = infeasible then begin
          sum := infeasible;
          i := hi
        end
        else begin
          sum := !sum + xc;
          incr i
        end
      done;
      t.combined.(j) <- !sum
    done;
  let trow = v * t.k in
  let masked = Array.length t.forbid > 0 in
  for j = 0 to t.deadline do
    let best = ref infeasible and best_t = ref (-1) in
    for ty = 0 to t.k - 1 do
      let dt = t.times.(trow + ty) in
      if
        (not (masked && t.forbid.(trow + ty)))
        && j - dt >= 0
        && t.combined.(j - dt) <> infeasible
      then begin
        let c = t.combined.(j - dt) + t.costs.(trow + ty) in
        if c < !best then begin
          best := c;
          best_t := ty
        end
      end
    done;
    t.x.(base + j) <- !best;
    t.choice.(base + j) <- !best_t
  done

let ensure t =
  if t.unsolved then begin
    Array.iter (fun v -> compute_row t v) (Dfg.Graph.post_arr t.g);
    Obs.Counter.add c_rows t.n;
    Array.fill t.dirty 0 t.n false;
    t.unsolved <- false;
    t.any_dirty <- false
  end
  else if t.any_dirty then begin
    let recomputed = ref 0 in
    Array.iter
      (fun v ->
        if t.dirty.(v) then begin
          compute_row t v;
          incr recomputed;
          t.dirty.(v) <- false
        end)
      (Dfg.Graph.post_arr t.g);
    Obs.Counter.add c_rows !recomputed;
    Obs.Counter.add c_dirty_rows !recomputed;
    t.any_dirty <- false
  end

let pin t ~node ~ftype =
  let row = node * t.k in
  let pt = t.times.(row + ftype) and pc = t.costs.(row + ftype) in
  for ty = 0 to t.k - 1 do
    t.times.(row + ty) <- pt;
    t.costs.(row + ty) <- pc
  done;
  (* Every type choice is now equivalent to the pinned (allowed) type, so
     the node's placement mask collapses with the row. *)
  if Array.length t.forbid > 0 then
    for ty = 0 to t.k - 1 do
      t.forbid.(row + ty) <- t.forbid.(row + ftype)
    done;
  (* Dirty the node and its ancestors; the dirty set is closed under
     parents, so an already-dirty node ends the climb. *)
  Obs.Counter.incr c_pins;
  let v = ref node in
  while !v >= 0 && not t.dirty.(!v) do
    t.dirty.(!v) <- true;
    Obs.Counter.incr c_dirty_walk;
    v := t.parent.(!v)
  done;
  t.any_dirty <- true

let refresh t ~node ~times ~costs =
  if Array.length times <> t.k || Array.length costs <> t.k then
    invalid_arg "Tree_kernel.refresh: row width mismatch";
  let row = node * t.k in
  Array.blit times 0 t.times row t.k;
  Array.blit costs 0 t.costs row t.k;
  (* Any earlier [pin] also collapsed the placement mask; restore the
     node's pristine row so all types are selectable again. *)
  if Array.length t.forbid > 0 then
    Array.blit t.forbid0 row t.forbid row t.k;
  Obs.Counter.incr c_refreshes;
  let v = ref node in
  while !v >= 0 && not t.dirty.(!v) do
    t.dirty.(!v) <- true;
    Obs.Counter.incr c_dirty_walk;
    v := t.parent.(!v)
  done;
  t.any_dirty <- true

let roots_feasible t =
  let w = t.deadline + 1 in
  not
    (Array.exists
       (fun r -> t.x.((r * w) + t.deadline) = infeasible)
       (Dfg.Graph.roots_arr t.g))

let feasible t =
  Obs.Counter.incr c_solves;
  ensure t;
  roots_feasible t

(* The traceback of [solve] restricted to one root path: collect the path
   bottom-up, then replay the budgets top-down from [deadline]. *)
let type_at t ~node =
  ensure t;
  let w = t.deadline + 1 in
  let depth = ref 0 and v = ref node in
  while !v >= 0 do
    t.chain.(!depth) <- !v;
    incr depth;
    v := t.parent.(!v)
  done;
  let budget = ref t.deadline and ty = ref (-1) in
  for i = !depth - 1 downto 0 do
    let u = t.chain.(i) in
    ty := t.choice.((u * w) + !budget);
    if !ty < 0 then invalid_arg "Tree_kernel.type_at: infeasible path";
    budget := !budget - t.times.((u * t.k) + !ty)
  done;
  !ty

let solve t =
  Obs.Counter.incr c_solves;
  ensure t;
  let w = t.deadline + 1 in
  let roots = Dfg.Graph.roots_arr t.g in
  if not (roots_feasible t) then None
  else begin
    let a = Array.make t.n 0 in
    (* Explicit stack: trees from [Dfg.Expand] can be very deep. *)
    let stack = Array.make t.n 0 and budget = Array.make t.n 0 in
    let sp = ref 0 in
    Array.iter
      (fun r ->
        stack.(!sp) <- r;
        budget.(!sp) <- t.deadline;
        incr sp)
      roots;
    while !sp > 0 do
      decr sp;
      let v = stack.(!sp) and b = budget.(!sp) in
      let ty = t.choice.((v * w) + b) in
      a.(v) <- ty;
      let remaining = b - t.times.((v * t.k) + ty) in
      Dfg.Graph.iter_dag_succs t.g v (fun c ->
          stack.(!sp) <- c;
          budget.(!sp) <- remaining;
          incr sp)
    done;
    let total =
      Array.fold_left (fun acc r -> acc + t.x.((r * w) + t.deadline)) 0 roots
    in
    Some (a, total)
  end

let dp_row t ~node =
  ensure t;
  let w = t.deadline + 1 in
  Array.sub t.x (node * w) w
