type lifetime = {
  node : int;
  birth : int;
  death : int;
}

let node_time table s v =
  Fulib.Table.time table ~node:v ~ftype:s.Schedule.assignment.(v)

let lifetimes g table s =
  let n = Dfg.Graph.num_nodes g in
  let schedule_end = Schedule.length table s in
  let rec build v acc =
    if v < 0 then acc
    else begin
      let birth = s.Schedule.start.(v) + node_time table s v in
      let zero_delay_consumers = Dfg.Graph.dag_succs g v in
      let has_delayed_consumer =
        List.exists (fun (_, d) -> d > 0) (Dfg.Graph.succs g v)
      in
      let death =
        if has_delayed_consumer || Dfg.Graph.succs g v = [] then schedule_end
        else
          List.fold_left
            (fun acc w -> Int.max acc s.Schedule.start.(w))
            birth zero_delay_consumers
      in
      let acc = if death > birth then { node = v; birth; death } :: acc else acc in
      build (v - 1) acc
    end
  in
  build (n - 1) []

let max_live g table s =
  let lts = lifetimes g table s in
  let schedule_end = Schedule.length table s in
  let live = Array.make (Int.max schedule_end 1) 0 in
  List.iter
    (fun { birth; death; _ } ->
      for step = birth to death - 1 do
        live.(step) <- live.(step) + 1
      done)
    lts;
  Array.fold_left Int.max 0 live

let allocate g table s =
  let lts =
    List.sort
      (fun a b ->
        let c = Int.compare a.birth b.birth in
        if c <> 0 then c else Int.compare a.node b.node)
      (lifetimes g table s)
  in
  (* left-edge: registers are free lists keyed by when they free up *)
  let free_at = ref [] (* (register, free step) *) in
  let next_register = ref 0 in
  let assign lt =
    let rec take acc = function
      | [] ->
          let r = !next_register in
          incr next_register;
          (r, List.rev acc)
      | (r, free) :: rest when free <= lt.birth -> (r, List.rev_append acc rest)
      | entry :: rest -> take (entry :: acc) rest
    in
    (* prefer the register that freed up earliest for determinism *)
    let sorted = List.sort (fun (_, f) (_, f') -> Int.compare f f') !free_at in
    let r, remaining = take [] sorted in
    free_at := (r, lt.death) :: remaining;
    (lt, r)
  in
  let allocation = List.map assign lts in
  (allocation, !next_register)
