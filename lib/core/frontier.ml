type point = {
  deadline : int;
  cost : int;
  config : Sched.Config.t;
}

let trace ?pool ?(algorithm = Synthesis.Repeat) g table ~max_deadline =
  let tmin = Synthesis.min_deadline g table in
  if max_deadline < tmin then []
  else begin
    let pool = match pool with Some p -> p | None -> Par.Pool.global () in
    Obs.Span.with_ "frontier.trace" @@ fun () ->
    (* Every deadline's solve is independent; only the staircase filter is
       sequential, and it runs over the order-preserved result array, so
       the sweep is bit-identical for any domain count. *)
    let ds = Array.init (max_deadline - tmin + 1) (fun i -> tmin + i) in
    let solved =
      Par.Pool.map_array pool
        (fun deadline ->
          (Synthesis.solve (Synthesis.request ~algorithm ~deadline g table))
            .Synthesis.result)
        ds
    in
    let best = ref max_int and acc = ref [] in
    Array.iteri
      (fun i r ->
        match r with
        | None -> ()
        | Some r ->
            if r.Synthesis.cost < !best then begin
              best := r.Synthesis.cost;
              acc :=
                {
                  deadline = ds.(i);
                  cost = r.Synthesis.cost;
                  config = r.Synthesis.config;
                }
                :: !acc
            end)
      solved;
    List.rev !acc
  end

let to_string points =
  Report.render ~title:"cost/deadline frontier"
    ~header:[ "T"; "cost"; "config" ]
    (List.map
       (fun p ->
         [
           string_of_int p.deadline;
           string_of_int p.cost;
           Sched.Config.to_string p.config;
         ])
       points)
