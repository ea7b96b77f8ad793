let infeasible = max_int

(* Observability: one bump per unit of DP work, so the incremental
   re-solve contract (a pin recomputes only rows whose inputs changed) is
   visible in [Obs.Counter.snapshot] — kernel.rows counts every DP row
   computed, kernel.cells the budgets those rows covered, kernel.dirty_rows
   only the rows recomputed because a pin or refresh dirtied them or one
   of their children, kernel.dirty_ancestors the parents a changed child
   row dirtied. *)
let c_solves = Obs.Counter.make "kernel.solves"
let c_rows = Obs.Counter.make "kernel.rows"
let c_cells = Obs.Counter.make "kernel.cells"
let c_dirty_rows = Obs.Counter.make "kernel.dirty_rows"
let c_pins = Obs.Counter.make "kernel.pins"
let c_refreshes = Obs.Counter.make "kernel.refreshes"
let c_dirty_walk = Obs.Counter.make "kernel.dirty_ancestors"

(* Flat, mutable DP state for [Tree_Assign] over a forest given as a parent
   array. [pin] mutates the kernel's own time/cost rows and dirties only
   the pinned node; a re-solve recomputes it and climbs to a parent only
   while the recomputed row differs from the one it replaces — the
   incremental heart of [DFG_Assign_Repeat].

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
     below hmin widens the windows below it (see [widen]).

   Rows are stored packed, each only on [floor(v), hi(v)], where floor is
   lo computed from [hmin]: floor(v) <= lo(v) while hmin holds, so every
   window fits. Cell j of row v sits at [off.(v) + j] of [x] and [choice].
   Only [widen] changes hmin, and it lays the rows out again.

   A parent reads a child's lo and its costs on [lo, hi], never its
   choice. So a recomputed row whose lo and costs came out unchanged
   leaves its parent clean (early cutoff). *)
type t = {
  n : int;
  k : int;
  deadline : int;
  times : int array;  (* n*k, owned: pin/refresh write here *)
  costs : int array;  (* n*k, owned *)
  forbid : bool array;  (* n*k placement mask, owned; empty = none *)
  forbid0 : bool array;  (* pristine copy of [forbid]: refresh restores from it *)
  parent : int array;  (* -1 for roots *)
  child_off : int array;  (* n+1: v's children at child_tgt.(child_off.(v)..) *)
  child_tgt : int array;  (* children of each node, ascending *)
  order : int array;  (* parents first: the roots ascending, then by level *)
  roots : int;  (* order.(0 .. roots - 1) are the roots *)
  hmin : int array;  (* least time [hi] assumes; deadline+1 = no type *)
  hi : int array;  (* top of each window; -1 = empty *)
  lo : int array;  (* least feasible budget of each row; deadline+1 = none *)
  mutable off : int array;  (* row v's budget j at off.(v) + j *)
  mutable x : int array;  (* packed subtree costs, valid on [lo, hi] *)
  mutable choice : int array;  (* packed chosen types, valid on [lo, hi] *)
  zeros : int array;  (* read-only: a leaf's children sum *)
  chain : int array;  (* scratch: a root path or a subtree's nodes *)
  combined : int array;  (* scratch: children cost sums per budget *)
  prev : int array;  (* scratch: a row's costs before its recompute *)
  dirty : bool array;
  mutable unsolved : bool;  (* no DP rows computed yet *)
  mutable any_dirty : bool;
}

(* The least time among [v]'s allowed types, capped at [cap] (also the
   answer when no type is allowed). *)
let min_time ~(times : int array) ~(forbid : bool array) ~k ~(cap : int) v =
  let row = v * k and m = ref cap in
  let masked = Array.length forbid > 0 in
  for ty = 0 to k - 1 do
    if (not (masked && forbid.(row + ty))) && times.(row + ty) < !m then
      m := times.(row + ty)
  done;
  !m

(* The children of the forest [parent] as CSR arrays, and its nodes
   parents first; raises unless [parent] is a forest: every entry -1 or a
   node, and no cycle (breadth-first from the roots reaches every node
   exactly when there is none). *)
let forest parent =
  let n = Array.length parent in
  let child_off = Array.make (n + 1) 0 in
  Array.iter
    (fun p ->
      if p < -1 || p >= n then invalid_arg "Tree_kernel: parent out of range";
      if p >= 0 then child_off.(p) <- child_off.(p) + 1)
    parent;
  (* prefix sums put the end of v's block at child_off.(v); filling the
     blocks backwards moves it to the block's start *)
  for v = 1 to n do
    child_off.(v) <- child_off.(v) + child_off.(v - 1)
  done;
  let child_tgt = Array.make child_off.(n) 0 in
  for v = n - 1 downto 0 do
    let p = parent.(v) in
    if p >= 0 then begin
      child_off.(p) <- child_off.(p) - 1;
      child_tgt.(child_off.(p)) <- v
    end
  done;
  let order = Array.make n 0 and len = ref 0 in
  for v = 0 to n - 1 do
    if parent.(v) < 0 then begin
      order.(!len) <- v;
      incr len
    end
  done;
  let roots = !len and i = ref 0 in
  while !i < !len do
    let v = order.(!i) in
    for e = child_off.(v) to child_off.(v + 1) - 1 do
      order.(!len) <- child_tgt.(e);
      incr len
    done;
    incr i
  done;
  if !len < n then invalid_arg "Tree_kernel: parent array is not a forest";
  (child_off, child_tgt, order, roots)

(* Packed row offsets for windows [floor(v), hi(v)]: fills [floor]
   children first from [hmin] and returns the offsets and the cell
   count. *)
let layout ~order ~child_off ~child_tgt ~hmin ~hi ~w floor =
  let n = Array.length order in
  for i = n - 1 downto 0 do
    let v = order.(i) in
    let m = ref 0 in
    for e = child_off.(v) to child_off.(v + 1) - 1 do
      m := Int.max !m floor.(child_tgt.(e))
    done;
    floor.(v) <- Int.min w (hmin.(v) + !m)
  done;
  let off = Array.make n 0 and size = ref 0 in
  for v = 0 to n - 1 do
    off.(v) <- !size - floor.(v);
    size := !size + Int.max 0 (hi.(v) - floor.(v) + 1)
  done;
  (off, !size)

let create ?forbid parent ~times ~costs ~k ~deadline =
  if deadline < 0 then invalid_arg "Tree_kernel: negative deadline";
  let n = Array.length parent in
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
  let child_off, child_tgt, order, roots = forest parent in
  let w = deadline + 1 in
  let hmin = Array.make n 0 and hi = Array.make n deadline in
  (* Parents first: each node's least time and window top (its parent's
     top minus the parent's least time). *)
  for i = 0 to n - 1 do
    let v = order.(i) in
    hmin.(v) <- min_time ~times ~forbid ~k ~cap:w v;
    let p = parent.(v) in
    if p >= 0 then hi.(v) <- Int.max (-1) (hi.(p) - hmin.(p))
  done;
  let lo = Array.make n 0 in
  let off, size = layout ~order ~child_off ~child_tgt ~hmin ~hi ~w lo in
  {
    n;
    k;
    deadline;
    times;
    costs;
    forbid;
    forbid0 = Array.copy forbid;
    parent;
    child_off;
    child_tgt;
    order;
    roots;
    hmin;
    hi;
    lo;
    off;
    x = Array.make size infeasible;
    choice = Array.make size (-1);
    zeros = Array.make w 0;
    chain = Array.make n 0;
    combined = Array.make w 0;
    prev = Array.make w 0;
    dirty = Array.make n false;
    unsolved = true;
    any_dirty = false;
  }

let parents (off, tgt) =
  let n = Array.length off - 1 in
  Array.init n (fun v ->
      match off.(v + 1) - off.(v) with
      | 0 -> -1
      | 1 -> tgt.(off.(v))
      | _ -> invalid_arg "Tree_kernel.parents: a node has two parents")

(* Tree node [i] gets original node [origin.(i)]'s rows. The mask reads
   footprints from [g], the graph the table describes: the forest may be
   its transpose or its expansion, where out-edges differ. *)
let of_table ?origin ~parent g table ~deadline =
  if Fulib.Table.num_nodes table <> Dfg.Graph.num_nodes g then
    invalid_arg "Tree_kernel.of_table: graph/table node counts differ";
  let tn = Array.length parent in
  let origin =
    match origin with
    | Some o -> o
    | None -> Array.init (Dfg.Graph.num_nodes g) Fun.id
  in
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
  create ?forbid parent ~times ~costs ~k ~deadline

(* [off] is never written in place ([widen] replaces it), and the forest
   arrays, [forbid0] and [zeros] are read-only, so those are shared. *)
let copy t =
  {
    t with
    times = Array.copy t.times;
    costs = Array.copy t.costs;
    forbid = Array.copy t.forbid;
    hmin = Array.copy t.hmin;
    hi = Array.copy t.hi;
    lo = Array.copy t.lo;
    x = Array.copy t.x;
    choice = Array.copy t.choice;
    chain = Array.make t.n 0;
    combined = Array.make (t.deadline + 1) 0;
    prev = Array.make (t.deadline + 1) 0;
    dirty = Array.copy t.dirty;
  }

(* One DP row on budgets [lo(v), hi(v)]: X_v(j) = min over allowed types
   of cost(v,t) + the sum over children c of X_c(j - time(v,t)). Types are
   the outer loop and the comparison is strict, so the first minimum in
   type order wins a tie. Sets lo(v). The children are feasible and
   computed on [max lo(c), hi(v) - min time], so their sum needs no
   infeasibility test. *)
let compute_row t v =
  let w = t.deadline + 1 and top = t.hi.(v) in
  let first = t.child_off.(v) and last = t.child_off.(v + 1) in
  let maxlo = ref 0 in
  for i = first to last - 1 do
    maxlo := Int.max !maxlo t.lo.(t.child_tgt.(i))
  done;
  let maxlo = !maxlo in
  let mt = min_time ~times:t.times ~forbid:t.forbid ~k:t.k ~cap:w v in
  let lo = Int.min w (mt + maxlo) in
  t.lo.(v) <- lo;
  if lo <= top then begin
    let src, soff =
      if first = last then (t.zeros, 0)
      else if last = first + 1 then (t.x, t.off.(t.child_tgt.(first)))
      else begin
        let span = top - mt in
        let c0 = t.off.(t.child_tgt.(first)) in
        Array.blit t.x (c0 + maxlo) t.combined maxlo (span - maxlo + 1);
        for i = first + 1 to last - 1 do
          let c = t.off.(t.child_tgt.(i)) in
          for j = maxlo to span do
            t.combined.(j) <- t.combined.(j) + t.x.(c + j)
          done
        done;
        (t.combined, 0)
      end
    in
    let base = t.off.(v) and trow = v * t.k in
    let masked = Array.length t.forbid > 0 in
    Array.fill t.x (base + lo) (top - lo + 1) infeasible;
    for ty = 0 to t.k - 1 do
      if not (masked && t.forbid.(trow + ty)) then begin
        let dt = t.times.(trow + ty) and cost = t.costs.(trow + ty) in
        for j = Int.max lo (dt + maxlo) to top do
          let c = src.(soff + j - dt) + cost in
          if c < t.x.(base + j) then begin
            t.x.(base + j) <- c;
            t.choice.(base + j) <- ty
          end
        done
      end
    done
  end

(* Recompute a dirty row; true when its lo or a cost on [lo, hi] changed,
   which is all its parent reads of it. *)
let recompute t v =
  let old_lo = t.lo.(v) and top = t.hi.(v) and base = t.off.(v) in
  if old_lo <= top then
    Array.blit t.x (base + old_lo) t.prev old_lo (top - old_lo + 1);
  compute_row t v;
  let lo = t.lo.(v) in
  lo <> old_lo
  ||
  let j = ref lo in
  while !j <= top && t.prev.(!j) = t.x.(base + !j) do
    incr j
  done;
  !j <= top

let ensure t =
  if t.unsolved || t.any_dirty then begin
    (* children first: the parents-first order backwards *)
    let rows = ref 0 and cells = ref 0 and climbed = ref 0 in
    for i = t.n - 1 downto 0 do
      let v = t.order.(i) in
      if t.unsolved || t.dirty.(v) then begin
        t.dirty.(v) <- false;
        if t.unsolved then compute_row t v
        else if recompute t v then begin
          let p = t.parent.(v) in
          if p >= 0 && not t.dirty.(p) then begin
            t.dirty.(p) <- true;
            incr climbed
          end
        end;
        incr rows;
        cells := !cells + Int.max 0 (t.hi.(v) - t.lo.(v) + 1)
      end
    done;
    Obs.Counter.add c_rows !rows;
    Obs.Counter.add c_cells !cells;
    if not t.unsolved then begin
      Obs.Counter.add c_dirty_rows !rows;
      Obs.Counter.add c_dirty_walk !climbed
    end;
    t.unsolved <- false;
    t.any_dirty <- false
  end

let mark t v =
  t.dirty.(v) <- true;
  t.any_dirty <- true

(* [node]'s subtree into [t.chain] breadth-first, so parents come before
   their children; returns its size. *)
let subtree t node =
  t.chain.(0) <- node;
  let len = ref 1 and i = ref 0 in
  while !i < !len do
    let u = t.chain.(!i) in
    for e = t.child_off.(u) to t.child_off.(u + 1) - 1 do
      t.chain.(!len) <- t.child_tgt.(e);
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
  mark t node

(* A refreshed row whose least time fell below [hmin] widens every window
   under it: recompute hi down the subtree and dirty all of it, since its
   rows now lack the budgets between the old and the new hi. Then lay the
   rows out again: [node] and its ancestors may now reach below their
   floor, and the subtree above its old top. Every row outside the
   subtree keeps its top, so its computed cells move over as they are;
   the subtree's rows are recomputed in full. *)
let widen t node m =
  t.hmin.(node) <- m;
  let len = subtree t node in
  let moved = Array.make t.n true in
  for i = 1 to len - 1 do
    let c = t.chain.(i) in
    let p = t.parent.(c) in
    t.hi.(c) <- Int.max (-1) (t.hi.(p) - t.hmin.(p));
    t.dirty.(c) <- true;
    moved.(c) <- false
  done;
  let floor = Array.make t.n 0 in
  let off, size =
    layout ~order:t.order ~child_off:t.child_off ~child_tgt:t.child_tgt
      ~hmin:t.hmin ~hi:t.hi ~w:(t.deadline + 1) floor
  in
  let x = Array.make size infeasible and choice = Array.make size (-1) in
  if not t.unsolved then
    for v = 0 to t.n - 1 do
      let lo = t.lo.(v) and top = t.hi.(v) in
      if moved.(v) && lo <= top then begin
        Array.blit t.x (t.off.(v) + lo) x (off.(v) + lo) (top - lo + 1);
        Array.blit t.choice (t.off.(v) + lo) choice (off.(v) + lo)
          (top - lo + 1)
      end
    done;
  t.off <- off;
  t.x <- x;
  t.choice <- choice

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
  mark t node;
  let m =
    min_time ~times:t.times ~forbid:t.forbid ~k:t.k ~cap:(t.deadline + 1) node
  in
  if m < t.hmin.(node) then widen t node m

let roots_feasible t =
  let ok = ref true in
  for i = 0 to t.roots - 1 do
    if t.lo.(t.order.(i)) > t.deadline then ok := false
  done;
  !ok

let feasible t =
  Obs.Counter.incr c_solves;
  ensure t;
  roots_feasible t

(* The traceback of [solve] restricted to one root path: collect the path
   bottom-up, then replay the budgets top-down from [deadline]. *)
let type_at t ~node =
  ensure t;
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
    ty := t.choice.(t.off.(u) + !budget);
    budget := !budget - t.times.((u * t.k) + !ty)
  done;
  !ty

let solve t =
  Obs.Counter.incr c_solves;
  ensure t;
  if not (roots_feasible t) then None
  else begin
    let a = Array.make t.n 0 in
    (* Explicit stack: trees from [Dfg.Expand] can be very deep. *)
    let stack = Array.make t.n 0 and budget = Array.make t.n 0 in
    let total = ref 0 in
    for i = 0 to t.roots - 1 do
      let r = t.order.(i) in
      stack.(i) <- r;
      budget.(i) <- t.deadline;
      total := !total + t.x.(t.off.(r) + t.deadline)
    done;
    let sp = ref t.roots in
    while !sp > 0 do
      decr sp;
      let v = stack.(!sp) and b = budget.(!sp) in
      let ty = t.choice.(t.off.(v) + b) in
      a.(v) <- ty;
      let remaining = b - t.times.((v * t.k) + ty) in
      for e = t.child_off.(v) to t.child_off.(v + 1) - 1 do
        stack.(!sp) <- t.child_tgt.(e);
        budget.(!sp) <- remaining;
        incr sp
      done
    done;
    Some (a, !total)
  end

(* A fresh kernel on [node]'s subtree, [node] renumbered as its root 0,
   with [t]'s current rows: a root's window reaches the deadline. *)
let subtree_kernel t node =
  let len = subtree t node in
  let index = Array.make t.n (-1) in
  for i = 0 to len - 1 do
    index.(t.chain.(i)) <- i
  done;
  let parent =
    Array.init len (fun i ->
        if i = 0 then -1 else index.(t.parent.(t.chain.(i))))
  in
  let k = t.k in
  let rows a =
    Array.init (len * k) (fun c -> a.((t.chain.(c / k) * k) + (c mod k)))
  in
  let forbid =
    if Array.length t.forbid = 0 then None else Some (rows t.forbid)
  in
  create ?forbid parent ~times:(rows t.times) ~costs:(rows t.costs) ~k
    ~deadline:t.deadline

(* A root's window already reaches the deadline; a non-root's row is read
   from a scratch kernel on its subtree, so [t]'s packed rows never grow
   past their windows. *)
let dp_row t ~node =
  let t, node =
    if t.parent.(node) < 0 then (t, node) else (subtree_kernel t node, 0)
  in
  ensure t;
  let w = t.deadline + 1 in
  let row = Array.make w infeasible and lo = t.lo.(node) in
  if lo < w then Array.blit t.x (t.off.(node) + lo) row lo (w - lo);
  row
