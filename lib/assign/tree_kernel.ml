let infeasible = max_int

(* Observability: one bump per unit of DP work, so the incremental
   re-solve contract ([pin] dirties only an ancestor chain) is visible in
   [Obs.Counter.snapshot] — kernel.rows counts every DP row computed,
   kernel.cells the budgets those rows covered, kernel.dirty_rows only the
   rows recomputed because a pin or refresh dirtied them. *)
let c_solves = Obs.Counter.make "kernel.solves"
let c_rows = Obs.Counter.make "kernel.rows"
let c_cells = Obs.Counter.make "kernel.cells"
let c_dirty_rows = Obs.Counter.make "kernel.dirty_rows"
let c_pins = Obs.Counter.make "kernel.pins"
let c_refreshes = Obs.Counter.make "kernel.refreshes"
let c_dirty_walk = Obs.Counter.make "kernel.dirty_ancestors"

(* Flat, mutable DP state for [Tree_Assign] over a forest. All matrices are
   single int arrays in row-major [node * (deadline + 1) + budget] layout,
   allocated once at [create] and reused across re-solves. [pin] mutates
   the kernel's own time/cost rows and dirties only the pinned node and its
   ancestor chain, so a re-solve after pinning recomputes O(depth) DP rows
   instead of all n — the incremental heart of [DFG_Assign_Repeat].

   Row v is only computed on its window [lo.(v), hi.(v)]:
   - lo(v) = v's least allowed time + the greatest lo over its children,
     capped at deadline + 1. X_v(j) is infeasible exactly when j < lo(v),
     so nothing below lo is ever read: parents only read children at
     budgets >= their children's greatest lo, and a traceback stays on
     feasible budgets.
   - hi(v) = deadline - the sum of [hmin] over v's strict ancestors, where
     hmin(a) <= a's current least allowed time. A parent p at j <= hi(p)
     reads child c at j - time(p) <= hi(p) - hmin(p) = hi(c), and a
     traceback from the deadline never exceeds hi. [pin] only raises a
     least time, so hi stays wide enough; a [refresh] that lowers one
     below hmin widens the windows below it (see [widen]). *)
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
  hmin : int array;  (* least time [hi] assumes; deadline+1 = no type *)
  hi : int array;  (* top of each window; -1 = empty *)
  lo : int array;  (* least feasible budget of each row; deadline+1 = none *)
  zeros : int array;  (* read-only: a leaf's children sum *)
  chain : int array;  (* scratch: a root path or a subtree's nodes *)
  x : int array;  (* n*(deadline+1) subtree costs, valid on [lo, hi] *)
  choice : int array;  (* n*(deadline+1) chosen type, valid on [lo, hi] *)
  combined : int array;  (* scratch: children cost sums per budget *)
  dirty : bool array;
  mutable unsolved : bool;  (* no DP rows computed yet *)
  mutable any_dirty : bool;
}

(* The least time among [v]'s allowed types, capped at [cap] (also the
   answer when no type is allowed). *)
let min_time ~times ~forbid ~k ~cap v =
  let row = v * k and m = ref cap in
  let masked = Array.length forbid > 0 in
  for ty = 0 to k - 1 do
    if (not (masked && forbid.(row + ty))) && times.(row + ty) < !m then
      m := times.(row + ty)
  done;
  !m

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
  let w = deadline + 1 in
  let order = Dfg.Graph.topo_arr g in
  let pred_off, pred_tgt = Dfg.Graph.csr_preds g in
  let parent = Array.make n (-1) and hmin = Array.make n 0 in
  let hi = Array.make n deadline in
  (* One pass, parents first: each node's parent, least time, and window
     top (its parent's top minus the parent's least time). *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    hmin.(v) <- min_time ~times ~forbid ~k ~cap:w v;
    if pred_off.(v + 1) > pred_off.(v) then begin
      let p = pred_tgt.(pred_off.(v)) in
      parent.(v) <- p;
      hi.(v) <- Int.max (-1) (hi.(p) - hmin.(p))
    end
  done;
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
    hmin;
    hi;
    lo = Array.make n w;
    zeros = Array.make w 0;
    chain = Array.make n 0;
    x = Array.make (n * w) infeasible;
    choice = Array.make (n * w) (-1);
    combined = Array.make w 0;
    dirty = Array.make n false;
    unsolved = true;
    any_dirty = false;
  }

(* Tree node [i] gets original node [origin.(i)]'s rows. The mask reads
   footprints from [g], the graph the table describes: [tree] may be its
   transpose or its expansion, where out-edges differ. *)
let of_table ?tree ?origin g table ~deadline =
  if Fulib.Table.num_nodes table <> Dfg.Graph.num_nodes g then
    invalid_arg "Tree_kernel.of_table: graph/table node counts differ";
  let tree = Option.value tree ~default:g in
  let tn = Dfg.Graph.num_nodes tree in
  let origin = match origin with Some o -> o | None -> Array.init tn Fun.id in
  if Array.length origin <> tn then
    invalid_arg "Tree_kernel.of_table: origin size mismatch";
  let k = Fulib.Table.num_types table in
  let ft = Fulib.Table.flat_times table and fc = Fulib.Table.flat_costs table in
  let times = Array.make (tn * k) 0 and costs = Array.make (tn * k) 0 in
  for i = 0 to tn - 1 do
    let src = origin.(i) * k and dst = i * k in
    for ty = 0 to k - 1 do
      times.(dst + ty) <- ft.(src + ty);
      costs.(dst + ty) <- fc.(src + ty)
    done
  done;
  let forbid =
    if not (Assignment.mem_constrained g table) then None
    else begin
      let mem = Dfg.Graph.out_data_arr g in
      let caps = Fulib.Table.mem_capacities table in
      let f =
        Array.init (tn * k) (fun c -> mem.(origin.(c / k)) > caps.(c mod k))
      in
      if Array.exists Fun.id f then Some f else None
    end
  in
  create ?forbid tree ~times ~costs ~k ~deadline

let copy t =
  {
    t with
    times = Array.copy t.times;
    costs = Array.copy t.costs;
    forbid = Array.copy t.forbid;
    hmin = Array.copy t.hmin;
    hi = Array.copy t.hi;
    lo = Array.copy t.lo;
    chain = Array.make t.n 0;
    x = Array.copy t.x;
    choice = Array.copy t.choice;
    combined = Array.make (t.deadline + 1) 0;
    dirty = Array.copy t.dirty;
  }

(* One DP row on budgets [lo(v), top]: X_v(j) = min over allowed types of
   cost(v,t) + the sum over children c of X_c(j - time(v,t)). Types are
   the outer loop and the comparison is strict, so the first minimum in
   type order wins a tie. Sets lo(v) and returns the number of budgets
   computed. The children are feasible and computed on
   [max lo(c), top - min time], so their sum needs no infeasibility
   test. *)
let compute_row t v ~top =
  let w = t.deadline + 1 in
  let succ_off, succ_tgt = Dfg.Graph.csr_succs t.g in
  let first = succ_off.(v) and last = succ_off.(v + 1) in
  let maxlo = ref 0 in
  for i = first to last - 1 do
    maxlo := Int.max !maxlo t.lo.(succ_tgt.(i))
  done;
  let maxlo = !maxlo in
  let mt = min_time ~times:t.times ~forbid:t.forbid ~k:t.k ~cap:w v in
  let lo = Int.min w (mt + maxlo) in
  t.lo.(v) <- lo;
  if lo > top then 0
  else begin
    let src, off =
      if first = last then (t.zeros, 0)
      else if last = first + 1 then (t.x, succ_tgt.(first) * w)
      else begin
        let span = top - mt in
        let c0 = succ_tgt.(first) * w in
        Array.blit t.x (c0 + maxlo) t.combined maxlo (span - maxlo + 1);
        for i = first + 1 to last - 1 do
          let c = succ_tgt.(i) * w in
          for j = maxlo to span do
            t.combined.(j) <- t.combined.(j) + t.x.(c + j)
          done
        done;
        (t.combined, 0)
      end
    in
    let base = v * w and trow = v * t.k in
    let masked = Array.length t.forbid > 0 in
    Array.fill t.x (base + lo) (top - lo + 1) infeasible;
    for ty = 0 to t.k - 1 do
      if not (masked && t.forbid.(trow + ty)) then begin
        let dt = t.times.(trow + ty) and cost = t.costs.(trow + ty) in
        for j = Int.max lo (dt + maxlo) to top do
          let c = src.(off + j - dt) + cost in
          if c < t.x.(base + j) then begin
            t.x.(base + j) <- c;
            t.choice.(base + j) <- ty
          end
        done
      end
    done;
    top - lo + 1
  end

let ensure t =
  if t.unsolved || t.any_dirty then begin
    (* children first: the topological order backwards *)
    let order = Dfg.Graph.topo_arr t.g in
    let rows = ref 0 and cells = ref 0 in
    for i = t.n - 1 downto 0 do
      let v = order.(i) in
      if t.unsolved || t.dirty.(v) then begin
        cells := !cells + compute_row t v ~top:t.hi.(v);
        incr rows;
        t.dirty.(v) <- false
      end
    done;
    Obs.Counter.add c_rows !rows;
    Obs.Counter.add c_cells !cells;
    if not t.unsolved then Obs.Counter.add c_dirty_rows !rows;
    t.unsolved <- false;
    t.any_dirty <- false
  end

(* Dirty [node] and its ancestors; the dirty set is closed under parents,
   so an already-dirty node ends the climb. *)
let dirty_chain t node =
  let v = ref node in
  while !v >= 0 && not t.dirty.(!v) do
    t.dirty.(!v) <- true;
    Obs.Counter.incr c_dirty_walk;
    v := t.parent.(!v)
  done;
  t.any_dirty <- true

(* [node]'s subtree into [t.chain] breadth-first, so parents come before
   their children; returns its size. *)
let subtree t node =
  let succ_off, succ_tgt = Dfg.Graph.csr_succs t.g in
  t.chain.(0) <- node;
  let len = ref 1 and i = ref 0 in
  while !i < !len do
    let u = t.chain.(!i) in
    for e = succ_off.(u) to succ_off.(u + 1) - 1 do
      t.chain.(!len) <- succ_tgt.(e);
      incr len
    done;
    incr i
  done;
  !len

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
  Obs.Counter.incr c_pins;
  dirty_chain t node

(* A refreshed row whose least time fell below [hmin] widens every window
   under it: recompute hi down the subtree and dirty all of it, since its
   rows now lack the budgets between the old and the new hi. *)
let widen t node m =
  t.hmin.(node) <- m;
  let len = subtree t node in
  for i = 1 to len - 1 do
    let c = t.chain.(i) in
    let p = t.parent.(c) in
    t.hi.(c) <- Int.max (-1) (t.hi.(p) - t.hmin.(p));
    t.dirty.(c) <- true
  done

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
  dirty_chain t node;
  let m =
    min_time ~times:t.times ~forbid:t.forbid ~k:t.k ~cap:(t.deadline + 1) node
  in
  if m < t.hmin.(node) then widen t node m

let roots_feasible t =
  Array.for_all (fun r -> t.lo.(r) <= t.deadline) (Dfg.Graph.roots_arr t.g)

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
    if !budget < t.lo.(u) then
      invalid_arg "Tree_kernel.type_at: infeasible path";
    ty := t.choice.((u * w) + !budget);
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

(* A root's window already reaches the deadline; a non-root's subtree is
   recomputed up to it first, children before parents. *)
let dp_row t ~node =
  ensure t;
  let w = t.deadline + 1 in
  if t.parent.(node) >= 0 then begin
    let len = subtree t node and cells = ref 0 in
    for i = len - 1 downto 0 do
      cells := !cells + compute_row t t.chain.(i) ~top:t.deadline
    done;
    Obs.Counter.add c_rows len;
    Obs.Counter.add c_cells !cells
  end;
  let row = Array.make w infeasible and lo = t.lo.(node) in
  if lo < w then Array.blit t.x ((node * w) + lo) row lo (w - lo);
  row
