let check g table (s : Sched.Schedule.t) ~period =
  let b = Check.Violation.builder () in
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let names = Dfg.Graph.names g in
  Check.Violation.fact b;
  if period < 1 then Check.Violation.add b "period" "period %d < 1" period;
  if Array.length s.start <> n || Array.length s.assignment <> n then
    Check.Violation.add b "length-mismatch"
      "schedule covers %d starts / %d types for %d nodes"
      (Array.length s.start)
      (Array.length s.assignment)
      n
  else if Array.for_all (fun t -> t >= 0 && t < k) s.assignment then begin
    if period >= 1 then
      List.iter
        (fun { Dfg.Graph.src; dst; delay; _ } ->
          Check.Violation.fact b;
          let f = Sched.Schedule.finish table s src in
          let available = s.start.(dst) + (delay * period) in
          if f > available then
            if delay = 0 then
              Check.Violation.add b ~node:dst "precedence"
                "%s starts at %d before its producer %s finishes at %d"
                names.(dst) s.start.(dst) names.(src) f
            else
              Check.Violation.add b ~node:dst "delay-edge"
                "edge %s->%s (%d delays): producer finishes at %d, consumer \
                 of iteration i+%d reads at %d (period %d)"
                names.(src) names.(dst) delay f delay available period)
        (Dfg.Graph.edges g)
  end
  else
    Check.Violation.add b "type-out-of-range"
      "schedule carries a type outside the %d-type library" k;
  Check.Violation.report b ~checker:"Oracle.Cyclic"

let check_rotation g table (r : Sched.Rotation.result) ~config =
  let b = Check.Violation.builder () in
  let n = Dfg.Graph.num_nodes g in
  if Array.length r.retiming <> n then
    Check.Violation.add b "length-mismatch" "retiming has %d lags for %d nodes"
      (Array.length r.retiming) n
  else
    List.iter
      (fun { Dfg.Graph.src; dst; delay; _ } ->
        Check.Violation.fact b;
        let retimed = delay + r.retiming.(dst) - r.retiming.(src) in
        if retimed < 0 then
          Check.Violation.add b ~node:dst "retiming"
            "edge %d->%d retimed to %d delays" src dst retimed)
      (Dfg.Graph.edges g);
  let retiming_report =
    Check.Violation.report b ~checker:"Oracle.Cyclic.rotation"
  in
  let period_report =
    let b = Check.Violation.builder () in
    Check.Violation.fact b;
    let len = Sched.Schedule.length table r.schedule in
    if len > r.period then
      Check.Violation.add b "period-mismatch"
        "claimed period %d shorter than the schedule length %d" r.period len;
    Check.Violation.report b ~checker:"Oracle.Cyclic.rotation"
  in
  Check.Violation.merge ~checker:"Oracle.Cyclic.rotation"
    [
      retiming_report;
      check r.graph table r.schedule ~period:r.period;
      period_report;
      Check.Config.check table r.schedule ~config;
    ]
