let check ?assignment ?config g table (s : Sched.Schedule.t) ~deadline =
  let b = Violation.builder () in
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types table in
  let names = Dfg.Graph.names g in
  if Array.length s.start <> n || Array.length s.assignment <> n then
    Violation.add b "length-mismatch"
      "schedule covers %d starts / %d types for %d nodes"
      (Array.length s.start)
      (Array.length s.assignment)
      n
  else begin
    Array.iteri
      (fun v t ->
        Violation.fact b;
        if t < 0 || t >= k then
          Violation.add b ~node:v "type-out-of-range"
            "scheduled type %d outside the %d-type library" t k)
      s.assignment;
    (match assignment with
    | None -> ()
    | Some a ->
        if Array.length a <> n then
          Violation.add b "length-mismatch"
            "paired assignment has %d entries for %d nodes" (Array.length a) n
        else
          Array.iteri
            (fun v t ->
              Violation.fact b;
              if t <> s.assignment.(v) then
                Violation.add b ~node:v "assignment-mismatch"
                  "%s scheduled on type %d but assigned type %d" names.(v)
                  s.assignment.(v) t)
            a);
    if Array.for_all (fun t -> t >= 0 && t < k) s.assignment then begin
      let time v = Fulib.Table.time table ~node:v ~ftype:s.assignment.(v) in
      Array.iteri
        (fun v start ->
          Violation.fact b;
          if start < 0 then
            Violation.add b ~node:v "negative-start" "%s starts at step %d"
              names.(v) start)
        s.start;
      List.iter
        (fun { Dfg.Graph.src; dst; delay; _ } ->
          if delay = 0 then begin
            Violation.fact b;
            let f = s.start.(src) + time src in
            if s.start.(dst) < f then
              Violation.add b ~node:dst "precedence"
                "%s starts at %d before its producer %s finishes at %d"
                names.(dst) s.start.(dst) names.(src) f
          end)
        (Dfg.Graph.edges g);
      Violation.fact b;
      let length =
        Array.to_seq s.start
        |> Seq.fold_lefti (fun acc v start -> max acc (start + time v)) 0
      in
      if length > deadline then
        Violation.add b "deadline" "schedule length %d exceeds T=%d" length
          deadline;
      match config with
      | None -> ()
      | Some config ->
          if Array.length config <> k then
            Violation.add b "config-length"
              "configuration has %d slots for %d types" (Array.length config) k
          else begin
            let usage = Config.occupancy table s in
            let lib = Fulib.Table.library table in
            for t = 0 to k - 1 do
              Violation.fact b;
              match
                Array.to_seq usage.(t)
                |> Seq.fold_lefti
                     (fun acc step used ->
                       match acc with
                       | Some _ -> acc
                       | None -> if used > config.(t) then Some (step, used) else None)
                     None
              with
              | Some (step, used) ->
                  Violation.add b "occupancy"
                    "type %s uses %d instance(s) at step %d, %d configured"
                    (Fulib.Library.type_name lib t)
                    used step config.(t)
              | None -> ()
            done
          end
    end
  end;
  Violation.report b ~checker:"Check.Schedule"
