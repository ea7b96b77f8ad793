(* lib/obs: span nesting and sink semantics, counter/gauge registries,
   JSON emit/parse round-trips, trace assembly, counter parity across
   pool widths, and the disabled-mode no-allocation contract. *)

(* Every test that records spans forces tracing on via the override and
   restores environment control on the way out, so the suite is
   insensitive to HETSCHED_TRACE in the calling environment. *)
let with_tracing on f =
  Obs.Env.set_trace (Some on);
  Fun.protect ~finally:(fun () -> Obs.Env.set_trace None) f

let fresh () =
  Obs.Span.clear ();
  Obs.Counter.reset_all ()

let sink_length () = List.length (Obs.Span.roots ())

(* Nesting depth of a completed span (a leaf is 1), its span count, and
   the first span named [name] in preorder. *)
let rec depth (s : Obs.Span.t) =
  1 + List.fold_left (fun acc c -> max acc (depth c)) 0 s.children

let rec count (s : Obs.Span.t) =
  1 + List.fold_left (fun acc c -> acc + count c) 0 s.children

let rec find name (s : Obs.Span.t) =
  if s.name = name then Some s
  else List.find_map (fun c -> find name c) s.children

(* --- spans ------------------------------------------------------------- *)

let test_span_nesting () =
  fresh ();
  with_tracing true (fun () ->
      let r =
        Obs.Span.with_ "outer" (fun () ->
            Obs.Span.with_ "mid" (fun () ->
                Obs.Span.with_ "leaf1" (fun () -> ()));
            Obs.Span.with_ "leaf2" (fun () -> 42))
      in
      Alcotest.(check int) "with_ returns f's value" 42 r);
  match Obs.Span.roots () with
  | [ (_, root) ] ->
      Alcotest.(check string) "root name" "outer" root.Obs.Span.name;
      Alcotest.(check int) "depth" 3 (depth root);
      Alcotest.(check int) "count" 4 (count root);
      Alcotest.(check (list string))
        "children in open order" [ "mid"; "leaf2" ]
        (List.map (fun s -> s.Obs.Span.name) root.Obs.Span.children);
      (match find "leaf1" root with
      | Some s ->
          Alcotest.(check bool) "leaf duration non-negative" true
            (s.Obs.Span.dur_ns >= 0.0)
      | None -> Alcotest.fail "leaf1 not found in span tree")
  | roots ->
      Alcotest.failf "expected exactly one root, got %d" (List.length roots)

let test_span_exception_still_recorded () =
  fresh ();
  with_tracing true (fun () ->
      match Obs.Span.with_ "boom" (fun () -> failwith "kept") with
      | _ -> Alcotest.fail "exception swallowed"
      | exception Failure msg -> Alcotest.(check string) "payload" "kept" msg);
  Alcotest.(check int) "span recorded despite the raise" 1
    (sink_length ())

(* Mutation-style check of the overhead contract: with tracing off, spans
   run the closure but never touch the sink — if someone deletes the flag
   check in [Span.with_], this fails. *)
let test_disabled_spans_allocate_nothing () =
  fresh ();
  with_tracing false (fun () ->
      Alcotest.(check bool) "trace_enabled () reports off" false
        (Obs.Env.trace_enabled ());
      let r =
        Obs.Span.with_ "invisible" (fun () ->
            Obs.Span.with_ "also-invisible" (fun () -> 7))
      in
      Alcotest.(check int) "closure still runs" 7 r);
  Alcotest.(check int) "sink stayed empty" 0 (sink_length ());
  Alcotest.(check (list reject)) "no roots" [] (Obs.Span.roots ())

(* --- counters and gauges ----------------------------------------------- *)

let test_counter_monotonic () =
  fresh ();
  let c = Obs.Counter.make "test.obs.mono" in
  let value () = Option.get (Obs.Counter.value_of "test.obs.mono") in
  Alcotest.(check int) "starts at zero" 0 (value ());
  let prev = ref (-1) in
  for _ = 1 to 100 do
    Obs.Counter.incr c;
    let v = value () in
    Alcotest.(check bool) "strictly increasing under incr" true (v > !prev);
    prev := v
  done;
  Obs.Counter.add c 17;
  Alcotest.(check int) "add accumulates" 117 (value ());
  let c' = Obs.Counter.make "test.obs.mono" in
  Obs.Counter.incr c';
  Alcotest.(check int) "make is idempotent: same cell" 118 (value ());
  Alcotest.(check (option int)) "value_of finds it" (Some 118)
    (Obs.Counter.value_of "test.obs.mono");
  Alcotest.(check bool) "snapshot carries it" true
    (List.mem ("test.obs.mono", 118) (Obs.Counter.snapshot ()))

let test_gauge_overwrites () =
  fresh ();
  let g = Obs.Gauge.make "test.obs.gauge" in
  Obs.Gauge.set g 4;
  Obs.Gauge.set g 2;
  Alcotest.(check (option int)) "last value wins" (Some 2)
    (Obs.Gauge.value_of "test.obs.gauge")

(* --- JSON -------------------------------------------------------------- *)

let test_json_round_trip () =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("null", Null);
        ("bools", List [ Bool true; Bool false ]);
        ("ints", List [ Int 0; Int (-42); Int max_int ]);
        ("floats", List [ Float 1.5; Float (-0.25); Float 1e9 ]);
        ("string", String "quote \" backslash \\ newline \n tab \t unicode \xc3\xa9");
        ("nested", Obj [ ("empty_list", List []); ("empty_obj", Obj []) ]);
      ]
  in
  let s = to_string doc in
  let reparsed = Result.get_ok (parse s) in
  (* Whole floats may come back as Int — compare via re-emission, which is
     the contract to_string actually makes. *)
  Alcotest.(check string) "emit . parse . emit is stable" s
    (to_string reparsed);
  Alcotest.(check (option string))
    "member survives" (Some "quote \" backslash \\ newline \n tab \t unicode \xc3\xa9")
    (Option.bind (member "string" reparsed) to_string_opt);
  (match parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated document accepted");
  Alcotest.(check string) "\\uXXXX decodes" "é"
    (match parse {|"é"|} with
    | Ok (String s) -> s
    | _ -> Alcotest.fail "not a string")

(* Regression: a malformed \u escape is an [Error] through the result API,
   never an escaping exception; underscores and signs are not hex digits;
   a high surrogate must pair with a low one. *)
let test_json_bad_unicode_escapes () =
  let rejects label doc =
    match Obs.Json.parse doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted %s" label doc
    | exception e ->
        Alcotest.failf "%s: raised %s" label (Printexc.to_string e)
  in
  rejects "non-hex" {|"\uZZZZ"|};
  rejects "one bad digit" {|"\u12G4"|};
  rejects "underscore" {|"\u1_23"|};
  rejects "sign" {|"\u+123"|};
  rejects "truncated" {|"\u12"|};
  rejects "high surrogate then non-low" {|"\uD83D\u0041"|};
  rejects "high surrogate then bad digits" {|"\uD83D\uZZZZ"|};
  let decodes label doc want =
    match Obs.Json.parse doc with
    | Ok (Obs.Json.String got) -> Alcotest.(check string) label want got
    | _ -> Alcotest.failf "%s: %s did not decode" label doc
  in
  decodes "upper-case hex" {|"\u00E9"|} "\xc3\xa9";
  decodes "surrogate pair" {|"\uD83D\uDE00"|} "\xf0\x9f\x98\x80"

(* Nesting is bounded: [max_depth] open containers parse, one more is an
   [Error] naming the offset and the bound, for arrays and objects
   alike, and a far deeper document is rejected the same way instead of
   exhausting the stack. *)
let test_json_depth_bound () =
  let open Obs.Json in
  let arrays d = String.make d '[' ^ String.make d ']' in
  let objects d =
    String.concat "" (List.init d (fun _ -> {|{"a":|}))
    ^ "1" ^ String.make d '}'
  in
  let too_deep offset =
    Error (Printf.sprintf "at offset %d: nesting deeper than %d" offset max_depth)
  in
  Alcotest.(check int) "the bound" 512 max_depth;
  (match (parse (arrays max_depth), parse (objects max_depth)) with
  | Ok (List _), Ok (Obj _) -> ()
  | _ -> Alcotest.fail "nesting at the bound rejected");
  let check what want got =
    Alcotest.(check (result string string)) what want
      (Result.map to_string got)
  in
  check "arrays, bound + 1" (too_deep max_depth) (parse (arrays (max_depth + 1)));
  check "objects, bound + 1"
    (too_deep (5 * max_depth))
    (parse (objects (max_depth + 1)));
  check "a million brackets" (too_deep max_depth)
    (parse (String.make 1_000_000 '['))

let test_trace_round_trip () =
  fresh ();
  with_tracing true (fun () ->
      Obs.Span.with_ "trace.root" (fun () ->
          Obs.Span.with_ "trace.child" (fun () -> ())));
  let c = Obs.Counter.make "test.obs.trace_counter" in
  Obs.Counter.add c 5;
  let h = Obs.Histogram.make "test.obs.trace_hist" in
  Obs.Histogram.observe h 500.0;
  let json = Obs.Trace.snapshot () in
  let reparsed = Result.get_ok (Obs.Json.parse (Obs.Json.to_string json)) in
  Alcotest.(check (option int))
    "counter survives the round trip" (Some 5)
    (Option.bind
       (Option.bind (Obs.Json.member "counters" reparsed)
          (Obs.Json.member "test.obs.trace_counter"))
       Obs.Json.to_int_opt);
  Alcotest.(check (option int))
    "histogram summary survives the round trip" (Some 1)
    (Option.bind
       (Option.bind
          (Option.bind (Obs.Json.member "histograms" reparsed)
             (Obs.Json.member "test.obs.trace_hist"))
          (Obs.Json.member "count"))
       Obs.Json.to_int_opt);
  let span_names =
    match Option.bind (Obs.Json.member "spans" reparsed) Obs.Json.to_list_opt with
    | Some entries ->
        List.filter_map
          (fun e ->
            Option.bind
              (Option.bind (Obs.Json.member "span" e)
                 (Obs.Json.member "name"))
              Obs.Json.to_string_opt)
          entries
    | None -> []
  in
  Alcotest.(check (list string)) "root span present" [ "trace.root" ] span_names

(* --- histograms --------------------------------------------------------- *)

let test_histogram_buckets_and_quantiles () =
  let h = Obs.Histogram.make "test.obs.hist" in
  Alcotest.(check bool) "registry idempotent" true
    (Obs.Histogram.make "test.obs.hist" == h);
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.Histogram.quantile h 0.5);
  (* bucket layout: [2^(i-1), 2^i) lands in bucket i *)
  Alcotest.(check int) "sub-ns" 0 (Obs.Histogram.bucket_of_ns 0.25);
  Alcotest.(check int) "1ns" 1 (Obs.Histogram.bucket_of_ns 1.0);
  Alcotest.(check int) "1023ns" 10 (Obs.Histogram.bucket_of_ns 1023.0);
  Alcotest.(check int) "1024ns" 11 (Obs.Histogram.bucket_of_ns 1024.0);
  (* 90 fast observations, 10 slow: p50 near 100ns, p99 near 1ms, every
     estimate within the documented sqrt-2 factor of the true value *)
  for _ = 1 to 90 do Obs.Histogram.observe h 100.0 done;
  for _ = 1 to 10 do Obs.Histogram.observe h 1_000_000.0 done;
  Alcotest.(check int) "count" 100 (Obs.Histogram.count h);
  let within_factor label expected got =
    let ratio = got /. expected in
    if ratio < 1.0 /. sqrt 2.0 || ratio > sqrt 2.0 then
      Alcotest.failf "%s: %.1f not within sqrt2 of %.1f" label got expected
  in
  within_factor "p50" 100.0 (Obs.Histogram.quantile h 0.5);
  within_factor "p90" 100.0 (Obs.Histogram.quantile h 0.9);
  within_factor "p99" 1_000_000.0 (Obs.Histogram.quantile h 0.99);
  within_factor "mean" 100_090.0 (Obs.Histogram.mean h);
  (* the diffable-snapshot path: quantiles of the observations between
     two snapshots *)
  let before = Obs.Histogram.buckets h in
  for _ = 1 to 50 do Obs.Histogram.observe h 1_000_000.0 done;
  let delta =
    Array.mapi (fun i c -> c - before.(i)) (Obs.Histogram.buckets h)
  in
  within_factor "delta p50" 1_000_000.0
    (Obs.Histogram.quantile_of_buckets delta 0.5)

(* The empty-quantile contract: 0.0 is the sentinel, no non-empty
   histogram can report it, and argument validation outranks emptiness. *)
let test_histogram_empty_quantile_contract () =
  let h = Obs.Histogram.make "test.obs.hist_empty" in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "empty sentinel at q=%.2f" q)
        0.0 (Obs.Histogram.quantile h q))
    [ 0.0; 0.25; 0.5; 0.99; 1.0 ];
  let raises q =
    try
      ignore (Obs.Histogram.quantile h q);
      false
    with Invalid_argument _ -> true
  in
  (* bad q raises even while empty: validation before the emptiness check *)
  Alcotest.(check bool) "q < 0 raises on empty" true (raises (-0.1));
  Alcotest.(check bool) "q > 1 raises on empty" true (raises 1.5);
  Alcotest.(check bool) "nan q raises on empty" true (raises Float.nan);
  (* all-zero snapshot is an empty histogram for the diffable path too *)
  Alcotest.(check (float 0.0))
    "all-zero buckets hit the sentinel" 0.0
    (Obs.Histogram.quantile_of_buckets
       (Array.make Obs.Histogram.num_buckets 0)
       0.5);
  (Alcotest.(check bool) "bad q on zero buckets raises" true
     (try
        ignore
          (Obs.Histogram.quantile_of_buckets
             (Array.make Obs.Histogram.num_buckets 0)
             2.0);
        false
      with Invalid_argument _ -> true));
  (* the sentinel is unreachable once anything was observed: even a
     sub-ns observation reports bucket 0's midpoint, 0.5 ns *)
  Obs.Histogram.observe h 0.0;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "sub-ns floor at q=%.2f" q)
        0.5 (Obs.Histogram.quantile h q))
    [ 0.0; 0.5; 1.0 ]

(* observe is an atomic fetch-and-add per cell: hammering one histogram
   from every domain must lose nothing *)
let test_histogram_concurrent_observes () =
  let h = Obs.Histogram.make "test.obs.hist_conc" in
  let per_task = 1000 in
  Par.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Par.Pool.map_array pool
           (fun seed ->
             for i = 1 to per_task do
               Obs.Histogram.observe h (float_of_int ((seed * i mod 977) + 1))
             done)
           (Array.init 8 (fun i -> i + 1))));
  Alcotest.(check int) "no lost observations" (8 * per_task)
    (Obs.Histogram.count h)

(* --- counter parity across pool widths --------------------------------- *)

(* The solver counters count units of work, not wall time; for a
   deterministic workload the totals must be identical at any domain
   count. Only the per-domain task-distribution counters may differ. *)
let test_counter_parity_across_domains () =
  let p1 = Par.Pool.create ~domains:1 () in
  let p2 = Par.Pool.create ~domains:2 () in
  let work pool =
    let g = Workloads.Filters.diffeq () in
    ignore
      (Core.Experiments.run_benchmark ~pool ~name:"diffeq"
         ~seed:(Core.Experiments.seed_of_name "diffeq")
         ~algorithms:Core.Experiments.table2_algorithms g)
  in
  let stable snap =
    List.filter
      (fun (name, _) ->
        not (String.length name >= 17 && String.sub name 0 17 = "pool.tasks.domain"))
      snap
  in
  fresh ();
  work p1;
  let snap1 = stable (Obs.Counter.snapshot ()) in
  fresh ();
  work p2;
  let snap2 = stable (Obs.Counter.snapshot ()) in
  Par.Pool.shutdown p1;
  Par.Pool.shutdown p2;
  Alcotest.(check bool) "some kernel work was counted" true
    (match List.assoc_opt "kernel.solves" snap1 with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check (list (pair string int)))
    "counters identical at 1 and 2 domains" snap1 snap2

(* Spans recorded inside pool tasks land as per-domain roots, not
   misattached under another domain's open span. *)
let test_spans_from_pool_tasks () =
  fresh ();
  let pool = Par.Pool.create ~domains:2 () in
  with_tracing true (fun () ->
      ignore
        (Par.Pool.map_array pool
           (fun i -> Obs.Span.with_ "task" (fun () -> i * i))
           (Array.init 8 (fun i -> i))));
  Par.Pool.shutdown pool;
  let roots = Obs.Span.roots () in
  Alcotest.(check int) "one root per task" 8 (List.length roots);
  List.iter
    (fun (_, s) ->
      Alcotest.(check string) "all named task" "task" s.Obs.Span.name)
    roots

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "obs"
    [
      ( "spans",
        [
          quick "nesting and depth" test_span_nesting;
          quick "exception still recorded" test_span_exception_still_recorded;
          quick "disabled mode records nothing" test_disabled_spans_allocate_nothing;
          quick "pool tasks become per-domain roots" test_spans_from_pool_tasks;
        ] );
      ( "registries",
        [
          quick "counter monotonicity" test_counter_monotonic;
          quick "gauge overwrite" test_gauge_overwrites;
        ] );
      ( "histograms",
        [
          quick "buckets and quantiles" test_histogram_buckets_and_quantiles;
          quick "empty-quantile contract" test_histogram_empty_quantile_contract;
          quick "concurrent observes" test_histogram_concurrent_observes;
        ] );
      ( "json",
        [
          quick "document round trip" test_json_round_trip;
          quick "trace round trip" test_trace_round_trip;
          quick "bad \\u escapes are errors" test_json_bad_unicode_escapes;
          quick "nesting at and past the bound" test_json_depth_bound;
        ] );
      ( "parity",
        [ quick "1 vs 2 domains" test_counter_parity_across_domains ] );
    ]
