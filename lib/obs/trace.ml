let rec span_to_json (s : Span.t) : Json.t =
  Json.Obj
    [
      ("name", Json.String s.Span.name);
      ("start_ns", Json.Float s.Span.start_ns);
      ("dur_ns", Json.Float s.Span.dur_ns);
      ("children", Json.List (List.map span_to_json s.Span.children));
    ]

let histogram_to_json h =
  Json.Obj
    [
      ("count", Json.Int (Histogram.count h));
      ("mean_ns", Json.Float (Histogram.mean h));
      ("p50_ns", Json.Float (Histogram.quantile h 0.5));
      ("p90_ns", Json.Float (Histogram.quantile h 0.9));
      ("p99_ns", Json.Float (Histogram.quantile h 0.99));
    ]

let snapshot () =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Int v)) (Counter.snapshot ())) );
      ( "gauges",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (Gauge.snapshot ()))
      );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (n, h) -> (n, histogram_to_json h))
             (Histogram.snapshot ())) );
      ( "spans",
        Json.List
          (List.map
             (fun (domain, span) ->
               Json.Obj
                 [ ("domain", Json.Int domain); ("span", span_to_json span) ])
             (Span.roots ())) );
    ]

let write ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (snapshot ()));
      output_char oc '\n')

let finish ?path () =
  if not (Env.trace_enabled ()) then None
  else begin
    let path = match path with Some p -> p | None -> Env.trace_path () in
    write ~path;
    Some path
  end
