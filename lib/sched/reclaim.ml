let c_moves = Obs.Counter.make "reclaim.moves"
let c_runs = Obs.Counter.make "reclaim.runs"

type result = {
  schedule : Schedule.t;
  energy_before : int;
  energy_after : int;
  moves : int;
}

(* ALAP re-timing + re-leveling. List scheduling packs every node as early
   as its producers allow, so a finished schedule's slack all pools at the
   tail — useless for stretching any individual node. The sweep therefore
   walks nodes in reverse topological order, pushes each as late as its
   zero-delay successors (already final for this sweep) allow, and takes
   the cheapest sibling level whose stretched span still fits the base
   type's pooled occupancy there. Pushing consumers later is what opens
   the window in which their producers can then be slowed down.

   Per-step occupancy is kept incrementally, so a candidate check is
   O(time) and a sweep is O(n · siblings · T). Sweeps repeat until
   quiescent, which terminates: every commit either strictly lowers total
   energy or strictly increases some start (bounded by the deadline), and
   starts never move earlier. *)
let run ?(pipelined = fun _ -> false) g table ~mapping ~config ~deadline s =
  Obs.Counter.incr c_runs;
  let energy_before = Assign.Assignment.total_cost table s.Schedule.assignment in
  let unchanged = { schedule = s; energy_before; energy_after = energy_before; moves = 0 } in
  if deadline <= 0 || not (Schedule.meets_deadline table s ~deadline) then
    unchanged
  else begin
    let n = Dfg.Graph.num_nodes g in
    let k = Fulib.Table.num_types table in
    let nb = Fulib.Dvfs.num_base mapping in
    let start = Array.copy s.Schedule.start in
    let a = Array.copy s.Schedule.assignment in
    let time v e = Fulib.Table.time table ~node:v ~ftype:e in
    let cost v e = Fulib.Table.cost table ~node:v ~ftype:e in
    (* Sibling levels of one base type are the same physical FU clocked
       lower, so occupancy pools per BASE type: capacity of base [b] is the
       config total over its siblings, and usage.(b * deadline + step)
       counts every node of any sibling level running at [step]. *)
    let cap = Array.make nb 0 in
    for e = 0 to k - 1 do
      let b = mapping.Fulib.Dvfs.base.(e) in
      cap.(b) <- cap.(b) + config.(e)
    done;
    let usage = Array.make (nb * deadline) 0 in
    let span v e = if pipelined e then 1 else time v e in
    let occupy v e delta =
      let b = mapping.Fulib.Dvfs.base.(e) in
      let hi = Int.min (start.(v) + span v e) deadline - 1 in
      for step = start.(v) to hi do
        usage.((b * deadline) + step) <- usage.((b * deadline) + step) + delta
      done
    in
    for v = 0 to n - 1 do
      occupy v a.(v) 1
    done;
    (* Is the pooled lane free for [v] on type [e] starting at [at]?
       Evaluated with [v]'s own occupancy removed, so a stretched span
       never collides with the node itself. *)
    let free v e at =
      let b = mapping.Fulib.Dvfs.base.(e) in
      let ok = ref true in
      let hi = Int.min (at + span v e) deadline - 1 in
      for step = at to hi do
        if usage.((b * deadline) + step) >= cap.(b) then ok := false
      done;
      !ok
    in
    (* Latest free start for (v, e) in [start.(v), limit - time], scanning
       latest-first; None when even the earliest position is occupied. *)
    let latest_free v e ~limit =
      let hi = limit - time v e in
      let rec scan at = if at < start.(v) then None
        else if free v e at then Some at
        else scan (at - 1)
      in
      scan hi
    in
    let topo = Dfg.Graph.topo_arr g in
    let moves = ref 0 in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = Array.length topo - 1 downto 0 do
        let v = topo.(i) in
        (* Latest allowed finish: the deadline and every zero-delay
           successor's start — successors are final for this sweep, and a
           start only ever moves later, so predecessors keep their room. *)
        let limit = ref deadline in
        Dfg.Graph.iter_dag_succs g v (fun w ->
            if start.(w) < !limit then limit := start.(w));
        let limit = !limit in
        let cur = a.(v) in
        occupy v cur (-1);
        (* Cheapest sibling with a free slot wins; ties keep the current
           level, then the lower type index — deterministic. The current
           level at the current start is always feasible, so the fold
           never comes up empty. *)
        let best = ref (cur, start.(v), cost v cur) in
        List.iter
          (fun e ->
            let _, _, bc = !best in
            if cost v e < bc then
              match latest_free v e ~limit with
              | Some at -> best := (e, at, cost v e)
              | None -> ())
          (Fulib.Dvfs.siblings mapping cur);
        let e, at, _ = !best in
        (* Even without a cheaper level, push the node ALAP: the gap this
           opens in front of it is exactly what lets its producers stretch
           on the next iteration of the inner loop or the next sweep. *)
        let e, at =
          if e = cur then
            match latest_free v cur ~limit with
            | Some at' when at' > at -> (cur, at')
            | _ -> (e, at)
          else (e, at)
        in
        if e <> cur || at <> start.(v) then begin
          if e <> cur then incr moves;
          changed := true
        end;
        a.(v) <- e;
        start.(v) <- at;
        occupy v e 1
      done
    done;
    Obs.Counter.add c_moves !moves;
    (* A sweep that re-timed nodes but never changed a level saved no
       energy; hand the original schedule back rather than the cosmetic
       ALAP churn. *)
    if !moves = 0 then unchanged
    else
      {
        schedule = { Schedule.start; assignment = a };
        energy_before;
        energy_after = Assign.Assignment.total_cost table a;
        moves = !moves;
      }
  end
