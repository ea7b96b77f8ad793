let escape field =
  let needs_quoting =
    String.exists (function ',' | '"' | '\n' | '\r' -> true | _ -> false) field
  in
  if not needs_quoting then field
  else begin
    let buf = Buffer.create (String.length field + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      field;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let render ~header rows =
  let line fields = String.concat "," (List.map escape fields) in
  String.concat "\n" (List.map line (header :: rows)) ^ "\n"

let report_rows report =
  List.concat_map
    (fun row ->
      let greedy = List.assoc_opt Synthesis.Greedy row.Experiments.costs in
      let greedy = Option.join greedy in
      List.map
        (fun (algo, cost) ->
          [
            report.Experiments.name;
            string_of_int row.Experiments.deadline;
            Synthesis.algorithm_name algo;
            (match cost with Some c -> string_of_int c | None -> "");
            (match cost with
            | Some c -> Report.percent ~baseline:greedy ~value:c
            | None -> "");
            (match row.Experiments.config with
            | Some c -> Sched.Config.to_string c
            | None -> "");
          ])
        row.Experiments.costs)
    report.Experiments.rows

let of_reports reports =
  render
    ~header:
      [
        "benchmark"; "deadline"; "algorithm"; "cost"; "reduction_vs_greedy";
        "config";
      ]
    (List.concat_map report_rows reports)

let of_frontier points =
  render
    ~header:[ "deadline"; "cost"; "config" ]
    (List.map
       (fun p ->
         [
           string_of_int p.Frontier.deadline;
           string_of_int p.Frontier.cost;
           Sched.Config.to_string p.Frontier.config;
         ])
       points)
