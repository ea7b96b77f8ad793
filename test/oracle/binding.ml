(* [is_valid ?pipelined table s b] checks no two nodes share an instance
   while both occupy it (full duration, or just the issue step for
   pipelined types). The binding oracle: [Sched.Binding.bind] must always
   pass it. *)
let is_valid ?(pipelined = fun _ -> false) table (s : Sched.Schedule.t)
    (b : Sched.Binding.t) =
  let n = Array.length s.start in
  let ok = ref true in
  for v = 0 to n - 1 do
    for w = v + 1 to n - 1 do
      if s.assignment.(v) = s.assignment.(w) && b.instance.(v) = b.instance.(w)
      then begin
        let t = s.assignment.(v) in
        let busy u =
          if pipelined t then 1
          else Fulib.Table.time table ~node:u ~ftype:s.assignment.(u)
        in
        let sv = s.start.(v) and sw = s.start.(w) in
        let fv = sv + busy v and fw = sw + busy w in
        if sv < fw && sw < fv then ok := false
      end
    done
  done;
  !ok
