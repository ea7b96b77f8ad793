type t = {
  start : int array;
  assignment : Assign.Assignment.t;
}

let node_time table s v =
  Fulib.Table.time table ~node:v ~ftype:s.assignment.(v)

let finish table s v = s.start.(v) + node_time table s v

let length table s =
  let n = Array.length s.start in
  let rec go v acc = if v < 0 then acc else go (v - 1) (Int.max acc (finish table s v)) in
  go (n - 1) 0

let respects_precedence g table s =
  let ok = ref true in
  for v = 0 to Dfg.Graph.num_nodes g - 1 do
    if s.start.(v) < 0 then ok := false;
    List.iter
      (fun u -> if s.start.(v) < finish table s u then ok := false)
      (Dfg.Graph.dag_preds g v)
  done;
  !ok

let meets_deadline table s ~deadline = length table s <= deadline

let usage_per_step ?(pipelined = fun _ -> false) table s =
  let k = Fulib.Table.num_types table in
  let len = length table s in
  let usage = Array.make_matrix k (Int.max len 1) 0 in
  Array.iteri
    (fun v ftype ->
      let t = Fulib.Table.time table ~node:v ~ftype in
      let last =
        if pipelined ftype then s.start.(v) else s.start.(v) + t - 1
      in
      for step = s.start.(v) to last do
        usage.(ftype).(step) <- usage.(ftype).(step) + 1
      done)
    s.assignment;
  usage

let peak_usage ?pipelined table s =
  Array.map (Array.fold_left Int.max 0) (usage_per_step ?pipelined table s)

let fits ?pipelined table s ~config =
  Config.dominates config (peak_usage ?pipelined table s)

let pp ~graph ~table ppf s =
  let lib = Fulib.Table.library table in
  let by_start =
    List.sort
      (fun v w ->
        let c = Int.compare s.start.(v) s.start.(w) in
        if c <> 0 then c else Int.compare v w)
      (List.init (Dfg.Graph.num_nodes graph) (fun i -> i))
  in
  Format.fprintf ppf "@[<v>step  node      type  duration";
  List.iter
    (fun v ->
      Format.fprintf ppf "@,%4d  %-8s  %-4s  %d" s.start.(v)
        (Dfg.Graph.name graph v)
        (Fulib.Library.type_name lib s.assignment.(v))
        (Fulib.Table.time table ~node:v ~ftype:s.assignment.(v)))
    by_start;
  Format.fprintf ppf "@]"
