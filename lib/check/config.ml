let occupancy table (s : Sched.Schedule.t) =
  let k = Fulib.Table.num_types table in
  let n = Array.length s.start in
  let horizon = ref 0 in
  for v = 0 to n - 1 do
    let ftype = s.assignment.(v) in
    if ftype >= 0 && ftype < k && s.start.(v) >= 0 then
      horizon := max !horizon (s.start.(v) + Fulib.Table.time table ~node:v ~ftype)
  done;
  let usage = Array.make_matrix k (max !horizon 1) 0 in
  for v = 0 to n - 1 do
    let ftype = s.assignment.(v) in
    if ftype >= 0 && ftype < k && s.start.(v) >= 0 then
      for step = s.start.(v) to s.start.(v) + Fulib.Table.time table ~node:v ~ftype - 1 do
        usage.(ftype).(step) <- usage.(ftype).(step) + 1
      done
  done;
  usage


let check table (s : Sched.Schedule.t) ~config =
  let b = Violation.builder () in
  let k = Fulib.Table.num_types table in
  let lib = Fulib.Table.library table in
  if Array.length config <> k then
    Violation.add b "config-length" "configuration has %d slots for %d types"
      (Array.length config) k
  else begin
    Array.iteri
      (fun t slots ->
        Violation.fact b;
        if slots < 0 then
          Violation.add b "negative-slots" "type %s has %d instances"
            (Fulib.Library.type_name lib t)
            slots)
      config;
    let peak = Array.map (Array.fold_left max 0) (occupancy table s) in
    for t = 0 to k - 1 do
      Violation.fact b;
      if peak.(t) > config.(t) then
        Violation.add b "config-under-provision"
          "type %s: peak concurrent use %d exceeds the %d configured instance(s)"
          (Fulib.Library.type_name lib t)
          peak.(t) config.(t)
    done
  end;
  Violation.report b ~checker:"Check.Config"
