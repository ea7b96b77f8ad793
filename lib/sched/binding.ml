type t = {
  instance : int array;
  config : Config.t;
}

let node_time table s v =
  Fulib.Table.time table ~node:v ~ftype:s.Schedule.assignment.(v)

let bind ?(pipelined = fun _ -> false) table s =
  let n = Array.length s.Schedule.start in
  let k = Fulib.Table.num_types table in
  let instance = Array.make n (-1) in
  let used = Array.make k 0 in
  (* left-edge per type: sweep nodes by start step; an instance is free
     when its last occupant finished by the node's start *)
  let by_start =
    List.sort
      (fun v w -> compare (s.Schedule.start.(v), v) (s.Schedule.start.(w), w))
      (List.init n (fun i -> i))
  in
  let free_at = Array.make k [||] in
  for t = 0 to k - 1 do
    free_at.(t) <- Array.make n 0
  done;
  List.iter
    (fun v ->
      let t = s.Schedule.assignment.(v) in
      let start = s.Schedule.start.(v) in
      let finish =
        if pipelined t then start + 1 else start + node_time table s v
      in
      (* lowest instance whose previous occupant is done *)
      let rec find i =
        if i >= n then invalid_arg "Binding.bind: impossible packing"
        else if free_at.(t).(i) <= start then i
        else find (i + 1)
      in
      let i = find 0 in
      instance.(v) <- i;
      free_at.(t).(i) <- finish;
      if i + 1 > used.(t) then used.(t) <- i + 1)
    by_start;
  { instance; config = used }

let unshared table s =
  let config = Array.make (Fulib.Table.num_types table) 0 in
  let instance =
    Array.map
      (fun t ->
        let i = config.(t) in
        config.(t) <- i + 1;
        i)
      s.Schedule.assignment
  in
  { instance; config }

let is_valid ?(pipelined = fun _ -> false) table s b =
  let n = Array.length s.Schedule.start in
  let ok = ref true in
  for v = 0 to n - 1 do
    for w = v + 1 to n - 1 do
      if
        s.Schedule.assignment.(v) = s.Schedule.assignment.(w)
        && b.instance.(v) = b.instance.(w)
      then begin
        let t = s.Schedule.assignment.(v) in
        let busy u = if pipelined t then 1 else node_time table s u in
        let sv = s.Schedule.start.(v) and sw = s.Schedule.start.(w) in
        let fv = sv + busy v and fw = sw + busy w in
        if sv < fw && sw < fv then ok := false
      end
    done
  done;
  !ok

(* Peak resident data per FU instance. A buffer lives on its PRODUCER's
   instance: a zero-delay edge u -> w occupies it from u's start until w
   completes; a delay edge's buffer crosses iterations and is charged for
   the whole schedule. Consumers on other instances read through the
   inter-FU transfer path (priced by [Dfg.Graph.transfer]), not through a
   second resident copy. *)
let peak_memory ~graph table s b =
  let k = Fulib.Table.num_types table in
  let len = max 1 (Schedule.length table s) in
  let usage =
    Array.init k (fun t -> Array.make_matrix (max 1 b.config.(t)) len 0)
  in
  let n = Array.length s.Schedule.start in
  for u = 0 to n - 1 do
    let t = s.Schedule.assignment.(u) and i = b.instance.(u) in
    List.iter
      (fun (w, delay, size) ->
        if size > 0 then begin
          let lo, hi =
            if delay = 0 then
              (s.Schedule.start.(u), Schedule.finish table s w - 1)
            else (0, len - 1)
          in
          for step = lo to min hi (len - 1) do
            usage.(t).(i).(step) <- usage.(t).(i).(step) + size
          done
        end)
      (Dfg.Graph.succs_sized graph u)
  done;
  Array.init k (fun t ->
      Array.init b.config.(t) (fun i ->
          Array.fold_left max 0 usage.(t).(i)))

let pp ~graph ~table ~schedule ppf b =
  let lib = Fulib.Table.library table in
  let k = Fulib.Table.num_types table in
  Format.fprintf ppf "@[<v>";
  let first = ref true in
  for t = 0 to k - 1 do
    for i = 0 to b.config.(t) - 1 do
      if not !first then Format.fprintf ppf "@,";
      first := false;
      Format.fprintf ppf "%s[%d]:" (Fulib.Library.type_name lib t) i;
      let occupants =
        List.sort
          (fun v w -> compare schedule.Schedule.start.(v) schedule.Schedule.start.(w))
          (List.filteri
             (fun _ v ->
               schedule.Schedule.assignment.(v) = t && b.instance.(v) = i)
             (List.init (Array.length b.instance) (fun x -> x)))
      in
      List.iter
        (fun v ->
          Format.fprintf ppf " %s@@%d" (Dfg.Graph.name graph v)
            schedule.Schedule.start.(v))
        occupants
    done
  done;
  Format.fprintf ppf "@]"
