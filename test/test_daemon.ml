(* The request session and its loops: answers as lines arrive (no EOF
   needed) and in input order, busy-shedding when the bounded queue is
   full, malformed-line error replies, the latency histogram, the idle
   timeout, the socket listener + client pump, and a differential of
   both loops against the batch oracle. Pipe-based tests drive
   Serve.Daemon.serve_fd directly; the socket test exercises listen/call
   end to end. *)

module J = Obs.Json

let lib3 = Fulib.Library.standard3

let instance ~seed =
  let rng = Workloads.Prng.create seed in
  let g = Workloads.Random_dfg.random_dag rng ~n:12 ~extra_edges:4 in
  let tbl = Workloads.Tables.random_tradeoff rng ~library:lib3 ~num_nodes:12 in
  (g, tbl)

let lookup _name ~seed = Some (instance ~seed)

let request_line ~id ~seed =
  Printf.sprintf
    {|{"id": %S, "benchmark": "rand", "seed": %d, "deadline_factor": 1.5}|}
    id seed

let counter name = Option.value (Obs.Counter.value_of name) ~default:0

(* --- wire helpers ------------------------------------------------------ *)

let parse_line s =
  match J.parse s with
  | Ok json -> json
  | Error msg -> Alcotest.failf "malformed response line %S: %s" s msg

let status_of line =
  match J.member "status" (parse_line line) with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "response %S has no status" line

let id_of line =
  match J.member "id" (parse_line line) with
  | Some (J.String s) -> s
  | Some (J.Int i) -> string_of_int i
  | _ -> Alcotest.failf "response %S has no id" line

(* --- pipe harness ------------------------------------------------------ *)

(* A daemon on a pair of pipes: requests go down [to_daemon], response
   lines come back via [from_daemon] (an in_channel for easy line reads).
   The daemon runs on its own domain; [finish] closes the request pipe
   and joins, returning serve_fd's response-line count. *)
type harness = {
  to_daemon : Unix.file_descr;
  from_daemon : in_channel;
  daemon : int Domain.t;
}

let start ?(queue_capacity = 4) ?(entries = 64) ?capacity ?idle_timeout () =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let cache = Serve.Cache.create ~entries () in
  let d = Serve.Daemon.create ~lookup ?capacity ~cache ~queue_capacity () in
  let daemon =
    Domain.spawn (fun () ->
        let n = Serve.Daemon.serve_fd ?idle_timeout d ~input:in_r ~output:out_w in
        Unix.close out_w;
        Unix.close in_r;
        n)
  in
  { to_daemon = in_w; from_daemon = Unix.in_channel_of_descr out_r; daemon }

let send h s = ignore (Unix.write_substring h.to_daemon s 0 (String.length s))

let recv_lines h n = List.init n (fun _ -> input_line h.from_daemon)

let finish h =
  Unix.close h.to_daemon;
  let n = Domain.join h.daemon in
  close_in h.from_daemon;
  n

(* --- streaming admission ----------------------------------------------- *)

(* Responses must stream back while the connection stays open: two bursts
   on one connection, each answered before the next is sent — something
   a loop that reads to EOF first cannot do. *)
let test_streaming_two_bursts () =
  let h = start () in
  let served0 = counter "serve.daemon.served" in
  let hist0 = Obs.Histogram.count (Serve.Daemon.latency_histogram ()) in
  send h (request_line ~id:"a1" ~seed:1 ^ "\n" ^ request_line ~id:"a2" ~seed:2 ^ "\n");
  let burst_a = recv_lines h 2 in
  Alcotest.(check (list string))
    "burst A ids, in order" [ "a1"; "a2" ] (List.map id_of burst_a);
  List.iter
    (fun l -> Alcotest.(check string) "burst A solved" "ok" (status_of l))
    burst_a;
  (* the daemon is still reading: a second burst on the same connection *)
  send h (request_line ~id:"b1" ~seed:3 ^ "\n");
  let burst_b = recv_lines h 1 in
  Alcotest.(check (list string)) "burst B id" [ "b1" ] (List.map id_of burst_b);
  let n = finish h in
  Alcotest.(check int) "serve_fd counted every response line" 3 n;
  Alcotest.(check int) "served counter" (served0 + 3) (counter "serve.daemon.served");
  Alcotest.(check bool)
    "latency histogram saw all three requests" true
    (Obs.Histogram.count (Serve.Daemon.latency_histogram ()) >= hist0 + 3)

(* --- busy backpressure -------------------------------------------------- *)

(* A queue-capacity-1 daemon under a one-write burst of five requests
   sheds four with "busy" (no blocking, no drops — every id is answered
   exactly once, in request order), and a retry of each shed id then
   succeeds. *)
let test_busy_backpressure () =
  let h = start ~queue_capacity:1 () in
  let busy0 = counter "serve.daemon.busy" in
  let ids = [ "q1"; "q2"; "q3"; "q4"; "q5" ] in
  let burst =
    String.concat ""
      (List.mapi (fun i id -> request_line ~id ~seed:(10 + i) ^ "\n") ids)
  in
  (* one write, well under PIPE_BUF: all five lines reach the daemon's
     buffer together, so exactly one fits the queue and four are shed *)
  Alcotest.(check bool) "burst is atomic" true (String.length burst < 4096);
  send h burst;
  (* q1 is queued and q2..q5 are shed in the same wave; the answers
     keep the burst's order *)
  let replies = recv_lines h 5 in
  Alcotest.(check (list string))
    "answers in request order" ids (List.map id_of replies);
  let solved, shed =
    List.partition (fun l -> status_of l = "ok") replies
  in
  Alcotest.(check (list string)) "first request solved" [ "q1" ] (List.map id_of solved);
  List.iter
    (fun l -> Alcotest.(check string) "overflow is busy" "busy" (status_of l))
    shed;
  Alcotest.(check int) "four shed" 4 (List.length shed);
  Alcotest.(check int) "busy counter" (busy0 + 4) (counter "serve.daemon.busy");
  (* the client owns the retry: resubmit each shed id one at a time —
     the queue has room now, so each is admitted and solved *)
  List.iteri
    (fun i l ->
      let id = id_of l in
      send h (request_line ~id ~seed:(11 + i) ^ "\n");
      let reply = List.hd (recv_lines h 1) in
      Alcotest.(check string) "retry echoes the id" id (id_of reply);
      Alcotest.(check string) "retry succeeds" "ok" (status_of reply))
    shed;
  let n = finish h in
  Alcotest.(check int) "5 burst replies + 4 retries" 9 n

(* --- malformed lines and blanks ----------------------------------------- *)

let test_malformed_and_blank_lines () =
  let h = start () in
  let malformed0 = counter "serve.daemon.malformed" in
  (* blank lines are skipped but still counted for default ids: the
     garbage on line 3 is reported as id 3, after the ok for line 1 *)
  send h (request_line ~id:"m1" ~seed:20 ^ "\n\nthis is not json\n");
  let replies = recv_lines h 2 in
  Alcotest.(check (list string))
    "statuses in input order" [ "ok"; "error" ]
    (List.map status_of replies);
  Alcotest.(check string) "error line carries the line number as id" "3"
    (id_of (List.nth replies 1));
  Alcotest.(check int) "malformed counter" (malformed0 + 1)
    (counter "serve.daemon.malformed");
  ignore (finish h)

(* Regression: a line whose only content is a malformed \u escape used
   to raise straight out of the JSON parser; it must get an error reply
   like any malformed line, and the valid line after it is still served. *)
let test_bad_unicode_escape_line () =
  let h = start () in
  send h ({|"\uZZZZ"|} ^ "\n" ^ request_line ~id:"u2" ~seed:21 ^ "\n");
  (* a daemon killed by the parser would never answer: fail, don't hang *)
  (match
     Unix.select [ Unix.descr_of_in_channel h.from_daemon ] [] [] 30.0
   with
  | [], _, _ -> Alcotest.fail "no reply within 30 s"
  | _ -> ());
  let replies = recv_lines h 2 in
  Alcotest.(check (list string))
    "statuses" [ "error"; "ok" ]
    (List.map status_of replies);
  Alcotest.(check string) "valid line answered" "u2"
    (id_of (List.nth replies 1));
  Alcotest.(check int) "both lines answered" 2 (finish h)

(* Regression: a line of bound + 1 brackets used to recurse the parser
   into a stack overflow that killed the daemon, so neither it nor the
   valid line after it was answered. The line without its closers is a
   depth error, not an end-of-input one. A table with fewer rows than the
   graph has nodes used to escape the decoder as an index error and kill
   the daemon the same way. *)
let test_bad_shape_lines () =
  let h = start () in
  let deep = String.make (J.max_depth + 1) '[' in
  let short_table =
    {|{"id": "short", "graph": {"nodes": [{"name": "a"}, {"name": "b"}], "edges": [[0, 1]]}, "table": {"types": ["P1"], "time": [[1]], "cost": [[1]]}, "deadline_factor": 1.2}|}
  in
  send h (deep ^ "
" ^ short_table ^ "
" ^ request_line ~id:"d3" ~seed:22 ^ "
");
  (match
     Unix.select [ Unix.descr_of_in_channel h.from_daemon ] [] [] 30.0
   with
  | [], _, _ -> Alcotest.fail "no reply within 30 s"
  | _ -> ());
  let replies = recv_lines h 3 in
  Alcotest.(check (list string))
    "statuses" [ "error"; "error"; "ok" ]
    (List.map status_of replies);
  let error_of line =
    match J.member "error" (parse_line line) with
    | Some (J.String e) -> e
    | _ -> Alcotest.failf "%S has no error text" line
  in
  Alcotest.(check string) "depth error"
    (Printf.sprintf "malformed JSON: at offset %d: nesting deeper than %d"
       J.max_depth J.max_depth)
    (error_of (List.hd replies));
  Alcotest.(check string) "row count error"
    "table has 1 rows but graph has 2 nodes"
    (error_of (List.nth replies 1));
  Alcotest.(check string) "valid line answered" "d3"
    (id_of (List.nth replies 2));
  Alcotest.(check int) "every line answered" 3 (finish h)

(* --- long lines through the windowed reader ------------------------------- *)

(* Reader regression: one request line over a megabyte long, delivered
   in 4 KiB fragments, so the reader sees hundreds of newline-free
   chunks. The old accumulator re-copied and re-scanned the whole
   prefix on every chunk (quadratic in the line length); the windowed
   reader must stay linear and still hand the parser the line intact.
   A long garbage line afterwards proves the window resets cleanly
   after a big take. *)
let test_long_line_roundtrip () =
  let h = start () in
  let pad = String.make (1 lsl 20) 'x' in
  let line =
    Printf.sprintf
      {|{"id": "big", "benchmark": "rand", "seed": 7, "deadline_factor": 1.5, "pad": %S}|}
      pad
  in
  let chunk = 4096 in
  let len = String.length line in
  let rec push off =
    if off < len then begin
      ignore (Unix.write_substring h.to_daemon line off (min chunk (len - off)));
      push (off + chunk)
    end
  in
  push 0;
  send h "\n";
  let reply = List.hd (recv_lines h 1) in
  Alcotest.(check string) "giant request parsed and solved" "ok"
    (status_of reply);
  Alcotest.(check string) "id survives the fragmentation" "big" (id_of reply);
  send h (String.make 100_000 'z' ^ "\n");
  Alcotest.(check string) "long garbage after a big take is flagged" "error"
    (status_of (List.hd (recv_lines h 1)));
  send h (request_line ~id:"after" ~seed:8 ^ "\n");
  Alcotest.(check string) "normal traffic resumes" "ok"
    (status_of (List.hd (recv_lines h 1)));
  let n = finish h in
  Alcotest.(check int) "three replies" 3 n

(* --- per-connection admission control ------------------------------------ *)

(* Deterministic inline instance: a two-node chain, 4 steps per node on
   the cheap unit the solver picks at deadline 16 *)
let admit_line ~id ~task ~period =
  Printf.sprintf
    {|{"cmd": "admit", "id": %S, "task": %S, "graph": {"nodes": [{"name": "a", "op": "mul"}, {"name": "b", "op": "add"}], "edges": [[0, 1]]}, "table": {"types": ["P1", "P2"], "time": [[4, 8], [4, 8]], "cost": [[9, 4], [8, 3]]}, "deadline": 16, "period": %d}|}
    id task period

let release_line ~id ~task =
  Printf.sprintf {|{"cmd": "release", "id": %S, "task": %S}|} id task

let test_admission_wire () =
  let h = start ~capacity:(Rt.Admission.Uniform 2) () in
  let admitted0 = counter "serve.rt.admitted" in
  let rejected0 = counter "serve.rt.rejected" in
  let released0 = counter "serve.rt.released" in
  (* admit, duplicate-reject, release, re-admit — one connection, with a
     plain solve interleaved to prove the paths share the wire *)
  send h (admit_line ~id:"w1" ~task:"t1" ~period:64 ^ "\n");
  let l = List.hd (recv_lines h 1) in
  Alcotest.(check string) "first admit" "admitted" (status_of l);
  Alcotest.(check bool) "admitted utilization gauge set" true
    (Option.is_some (Obs.Gauge.value_of "serve.rt.utilization_pct"));
  send h (request_line ~id:"w2" ~seed:40 ^ "\n");
  Alcotest.(check string) "solve still works mid-session" "ok"
    (status_of (List.hd (recv_lines h 1)));
  send h (admit_line ~id:"w3" ~task:"t1" ~period:64 ^ "\n");
  let dup = List.hd (recv_lines h 1) in
  Alcotest.(check string) "duplicate rejected" "rejected" (status_of dup);
  (match J.member "reason" (parse_line dup) with
  | Some (J.String "duplicate_id") -> ()
  | _ -> Alcotest.failf "expected duplicate_id reason in %s" dup);
  send h (release_line ~id:"w4" ~task:"t1" ^ "\n");
  Alcotest.(check string) "release" "released"
    (status_of (List.hd (recv_lines h 1)));
  send h (admit_line ~id:"w5" ~task:"t1" ~period:64 ^ "\n");
  Alcotest.(check string) "re-admit after release" "admitted"
    (status_of (List.hd (recv_lines h 1)));
  (* a period below the chain's min period: rejected with a witness *)
  send h (admit_line ~id:"w6" ~task:"t2" ~period:1 ^ "\n");
  let rej = parse_line (List.hd (recv_lines h 1)) in
  (match (J.member "reason" rej, J.member "witness" rej) with
  | Some (J.String "period_overrun"), Some w -> (
      match (J.member "min_period" w, J.member "period" w) with
      | Some (J.Int mp), Some (J.Int p) ->
          Alcotest.(check bool) "witness inequality" true (mp > p)
      | _ -> Alcotest.fail "witness missing its numbers")
  | _ -> Alcotest.fail "period-1 admit should be a period_overrun rejection");
  let n = finish h in
  Alcotest.(check int) "six replies" 6 n;
  Alcotest.(check int) "admitted counter" (admitted0 + 2)
    (counter "serve.rt.admitted");
  Alcotest.(check int) "rejected counter" (rejected0 + 2)
    (counter "serve.rt.rejected");
  Alcotest.(check int) "released counter" (released0 + 1)
    (counter "serve.rt.released")

(* Admission state is per connection: a second daemon session starts with
   an empty controller, so the same task key admits again *)
let test_admission_state_per_connection () =
  let h1 = start ~capacity:(Rt.Admission.Uniform 2) () in
  send h1 (admit_line ~id:"c1" ~task:"shared" ~period:64 ^ "\n");
  Alcotest.(check string) "first connection admits" "admitted"
    (status_of (List.hd (recv_lines h1 1)));
  ignore (finish h1);
  let h2 = start ~capacity:(Rt.Admission.Uniform 2) () in
  send h2 (admit_line ~id:"c2" ~task:"shared" ~period:64 ^ "\n");
  Alcotest.(check string) "fresh connection has a fresh controller"
    "admitted"
    (status_of (List.hd (recv_lines h2 1)));
  ignore (finish h2)

(* An admit's job rides the wave like a solve, so a full queue sheds it
   too: at capacity 1, a one-write burst of a solve then an admit answers
   ok, then busy, and the retried admit is admitted. *)
let test_admit_shed_when_full () =
  let h = start ~queue_capacity:1 ~capacity:(Rt.Admission.Uniform 2) () in
  send h
    (request_line ~id:"s1" ~seed:60 ^ "\n"
    ^ admit_line ~id:"a1" ~task:"t1" ~period:64
    ^ "\n");
  let replies = recv_lines h 2 in
  Alcotest.(check (list string)) "ids in order" [ "s1"; "a1" ]
    (List.map id_of replies);
  Alcotest.(check (list string)) "ok, then busy" [ "ok"; "busy" ]
    (List.map status_of replies);
  send h (admit_line ~id:"a1" ~task:"t1" ~period:64 ^ "\n");
  Alcotest.(check string) "retried admit" "admitted"
    (status_of (List.hd (recv_lines h 1)));
  Alcotest.(check int) "three answers" 3 (finish h)

(* --- idle timeout -------------------------------------------------------- *)

let test_idle_timeout_reaps_silent_client () =
  let idle0 = counter "serve.daemon.idle_closed" in
  let h = start ~idle_timeout:0.2 () in
  (* an active exchange first: the timeout must not bite a live client *)
  send h (request_line ~id:"i1" ~seed:50 ^ "\n");
  Alcotest.(check string) "live client served" "ok"
    (status_of (List.hd (recv_lines h 1)));
  (* now go silent without closing the pipe: serve_fd must reap the
     session on its own — finish would otherwise block forever *)
  let t0 = Unix.gettimeofday () in
  let n = Domain.join h.daemon in
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "one response before the reap" 1 n;
  Alcotest.(check bool) "reaped after roughly the timeout" true
    (waited < 10.0);
  Alcotest.(check int) "idle_closed counter" (idle0 + 1)
    (counter "serve.daemon.idle_closed");
  Unix.close h.to_daemon;
  close_in h.from_daemon

(* The EINTR regression: an interval timer fires SIGALRM every 10 ms,
   far below the 250 ms idle timeout. The old wait restarted the FULL
   timeout after every EINTR, so under such a storm the select was
   interrupted before it could ever expire and the session lived
   forever; the clock-deadline recompute keeps the total wait bounded.
   Runs serve_fd on the test's own thread so the signals land on its
   select. *)
let test_idle_timeout_survives_signal_storm () =
  let idle0 = counter "serve.daemon.idle_closed" in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let d =
    Serve.Daemon.create ~lookup ~cache:(Serve.Cache.create ~entries:4 ()) ()
  in
  let old_handler = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = 0.01; it_value = 0.01 });
  let finally () =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = 0.0; it_value = 0.0 });
    Sys.set_signal Sys.sigalrm old_handler;
    List.iter Unix.close [ in_r; in_w; out_r; out_w ]
  in
  Fun.protect ~finally (fun () ->
      let t0 = Unix.gettimeofday () in
      let n =
        Serve.Daemon.serve_fd ~idle_timeout:0.25 d ~input:in_r ~output:out_w
      in
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "no responses from a silent client" 0 n;
      Alcotest.(check bool)
        (Printf.sprintf "reap bounded under the storm (waited %.3fs)" waited)
        true
        (waited >= 0.2 && waited < 5.0);
      Alcotest.(check int) "idle_closed counter" (idle0 + 1)
        (counter "serve.daemon.idle_closed"))

(* The idle deadline is per line, not per chunk: a writer that sends one
   byte every 50 ms and never a newline is reaped like a silent client.
   The writer gives up after 4 s, so a deadline that each byte pushed
   back shows as a slow reap, not a hang. *)
let test_idle_timeout_reaps_trickling_client () =
  let idle0 = counter "serve.daemon.idle_closed" in
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let d =
    Serve.Daemon.create ~lookup ~cache:(Serve.Cache.create ~entries:4 ()) ()
  in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let t0 = Unix.gettimeofday () in
        while (not (Atomic.get stop)) && Unix.gettimeofday () -. t0 < 4.0 do
          ignore (Unix.write_substring in_w "{" 0 1);
          Unix.sleepf 0.05
        done)
  in
  let finally () =
    Atomic.set stop true;
    Domain.join writer;
    List.iter Unix.close [ in_r; in_w; out_r; out_w ]
  in
  Fun.protect ~finally (fun () ->
      let t0 = Unix.gettimeofday () in
      let n =
        Serve.Daemon.serve_fd ~idle_timeout:0.25 d ~input:in_r ~output:out_w
      in
      let waited = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "no responses to a line that never ends" 0 n;
      Alcotest.(check bool)
        (Printf.sprintf "reaped within 2 s (waited %.3fs)" waited)
        true (waited < 2.0);
      Alcotest.(check int) "idle_closed counter" (idle0 + 1)
        (counter "serve.daemon.idle_closed"))

let test_idle_timeout_validated () =
  let d =
    Serve.Daemon.create ~lookup ~cache:(Serve.Cache.create ~entries:4 ()) ()
  in
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "idle_timeout %f rejected" bad)
        true
        (try
           ignore
             (Serve.Daemon.serve_fd ~idle_timeout:bad d ~input:Unix.stdin
                ~output:Unix.stdout);
           false
         with Invalid_argument _ -> true))
    [ 0.0; -1.0; Float.nan; Float.infinity ]

(* --- socket listener + client pump --------------------------------------- *)

let test_socket_roundtrip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hetsched-test-%d.sock" (Unix.getpid ()))
  in
  let d =
    Serve.Daemon.create ~lookup ~cache:(Serve.Cache.create ~entries:64 ()) ()
  in
  let listener =
    Domain.spawn (fun () -> Serve.Daemon.listen ~connections:1 d ~path ())
  in
  (* wait for the listener to bind *)
  let rec await tries =
    if not (Sys.file_exists path) then
      if tries = 0 then Alcotest.fail "daemon socket never appeared"
      else begin
        Unix.sleepf 0.01;
        await (tries - 1)
      end
  in
  await 500;
  let reqs = Filename.temp_file "hetsched-reqs" ".jsonl" in
  let resps = Filename.temp_file "hetsched-resps" ".jsonl" in
  let oc = open_out reqs in
  List.iter
    (fun (id, seed) -> output_string oc (request_line ~id ~seed ^ "\n"))
    [ ("s1", 30); ("s2", 31); ("s3", 32) ];
  close_out oc;
  let input = open_in reqs in
  let output = open_out resps in
  let received = Serve.Daemon.call ~path ~input ~output in
  close_in input;
  close_out output;
  Alcotest.(check int) "three responses over the socket" 3 received;
  let total = Domain.join listener in
  Alcotest.(check int) "listener counted the same lines" 3 total;
  let ic = open_in resps in
  let lines = List.init 3 (fun _ -> input_line ic) in
  close_in ic;
  Alcotest.(check (list string))
    "socket replies tagged by id, in order" [ "s1"; "s2"; "s3" ]
    (List.map id_of lines);
  List.iter
    (fun l -> Alcotest.(check string) "socket replies solved" "ok" (status_of l))
    lines;
  Sys.remove reqs;
  Sys.remove resps;
  Alcotest.(check bool) "socket file removed on exit" false (Sys.file_exists path)

(* A client that streams rtl+validate lines and hangs up without reading
   a byte: the daemon's writes to it fail. Only that connection may end
   (counted in serve.daemon.dropped, its unsolved jobs dropped with it); the
   same listener must go on to answer the next client. *)
let test_early_hangup_keeps_listener () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hetsched-hangup-%d.sock" (Unix.getpid ()))
  in
  let d =
    Serve.Daemon.create ~lookup:Workloads.Catalogue.lookup
      ~cache:(Serve.Cache.create ~entries:64 ()) ()
  in
  let dropped = counter "serve.daemon.dropped" in
  let listener =
    Domain.spawn (fun () -> Serve.Daemon.listen ~connections:2 d ~path ())
  in
  let rec await tries =
    if not (Sys.file_exists path) then
      if tries = 0 then Alcotest.fail "daemon socket never appeared"
      else begin
        Unix.sleepf 0.01;
        await (tries - 1)
      end
  in
  await 500;
  (* Send up to 2,000 lines, stopping early if the socket buffer fills,
     then close without reading. *)
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  Unix.set_nonblock sock;
  let rec push i =
    if i < 2000 then
      let line =
        Printf.sprintf
          {|{"id": %d, "benchmark": "elliptic", "seed": %d, "deadline_factor": 1.3, "rtl": true, "validate": true}|}
          i i
        ^ "\n"
      in
      match Unix.write_substring sock line 0 (String.length line) with
      | n when n = String.length line -> push (i + 1)
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ()
  in
  push 0;
  Unix.close sock;
  (* the second client, on the same listener *)
  let reqs = Filename.temp_file "hetsched-reqs" ".jsonl" in
  let resps = Filename.temp_file "hetsched-resps" ".jsonl" in
  Out_channel.with_open_text reqs (fun oc ->
      output_string oc
        {|{"id": "after", "benchmark": "elliptic", "deadline_factor": 1.5}|};
      output_string oc "\n");
  let received =
    In_channel.with_open_text reqs (fun input ->
        Out_channel.with_open_text resps (fun output ->
            Serve.Daemon.call ~path ~input ~output))
  in
  ignore (Domain.join listener);
  let lines = In_channel.with_open_text resps In_channel.input_lines in
  Sys.remove reqs;
  Sys.remove resps;
  Alcotest.(check int) "second client answered" 1 received;
  Alcotest.(check (list string))
    "its own id" [ "after" ] (List.map id_of lines);
  Alcotest.(check (list string)) "solved" [ "ok" ] (List.map status_of lines);
  Alcotest.(check int) "hang-up counted" (dropped + 1)
    (counter "serve.daemon.dropped")

(* --- differential against the batch oracle ---------------------------------- *)

module P = Workloads.Prng

let smoke_lines =
  lazy
    (List.concat_map
       (fun name ->
         match
           List.find_opt Sys.file_exists [ "../data/" ^ name; "data/" ^ name ]
         with
         | None -> Alcotest.failf "data/%s not found" name
         | Some p -> In_channel.with_open_text p In_channel.input_lines)
       [ "serve_smoke.jsonl"; "rt_smoke.jsonl" ]
    |> List.filter (fun l -> String.trim l <> "")
    |> Array.of_list)

let pick rng a = a.(P.int rng (Array.length a))

(* Smoke lines, inline admits and releases over a few task keys, malformed
   lines and blank lines, one per input line. *)
let random_line rng i =
  let id = Printf.sprintf "x%d" i and task = pick rng [| "t0"; "t1"; "t2" |] in
  match P.int rng 6 with
  | 0 | 1 -> pick rng (Lazy.force smoke_lines)
  | 2 -> admit_line ~id ~task ~period:(pick rng [| 1; 64 |])
  | 3 -> release_line ~id ~task
  | 4 ->
      pick rng
        [|
          "this is not json"; "{"; {|{"cmd": "evict"}|};
          {|{"benchmark": "no-such-filter", "deadline": 9}|};
          {|{"cmd": "admit", "benchmark": "diffeq", "deadline": 40}|};
        |]
  | _ -> pick rng [| ""; "   " |]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One channel run from [text] to the bytes it writes. *)
let channel_bytes run text =
  let in_path = Filename.temp_file "hetsched-diff" ".in" in
  let out_path = Filename.temp_file "hetsched-diff" ".out" in
  Out_channel.with_open_bin in_path (fun oc -> output_string oc text);
  In_channel.with_open_bin in_path (fun input ->
      Out_channel.with_open_bin out_path (fun output ->
          ignore (run ~input ~output)));
  let out = read_file out_path in
  Sys.remove in_path;
  Sys.remove out_path;
  out

(* [serve_fd] over a pipe pair: the input fits in the pipe buffer, so it
   is written whole before the answers are read back to EOF. *)
let fd_bytes d text =
  let in_r, in_w = Unix.pipe () and out_r, out_w = Unix.pipe () in
  let daemon =
    Domain.spawn (fun () ->
        ignore (Serve.Daemon.serve_fd d ~input:in_r ~output:out_w);
        Unix.close out_w)
  in
  ignore (Unix.write_substring in_w text 0 (String.length text));
  Unix.close in_w;
  let out = In_channel.input_all (Unix.in_channel_of_descr out_r) in
  Domain.join daemon;
  Unix.close in_r;
  Unix.close out_r;
  out

let loops_match_oracle ~domains =
  Alcotest.test_case
    (Printf.sprintf "loops = batch oracle, %d domain%s" domains
       (if domains = 1 then "" else "s"))
    `Quick
    (fun () ->
      Par.Pool.with_pool ~domains @@ fun pool ->
      (* one cache for every run: a hit answers with a fresh solve's bytes *)
      let cache = Serve.Cache.create ~entries:512 () in
      let capacity = Rt.Admission.Uniform 6 in
      let daemon queue_capacity =
        Serve.Daemon.create ~lookup:Workloads.Catalogue.lookup ~capacity ~pool
          ~cache ~queue_capacity ()
      in
      QCheck.Test.check_exn
        ~rand:(Random.State.make [| 19; domains |])
        (QCheck.Test.make ~name:"loops = batch oracle" ~count:100
           (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int))
           (fun seed ->
             let rng = P.create seed in
             let n = 1 + P.int rng 40 in
             let text =
               String.concat ""
                 (List.init n (fun i -> random_line rng i ^ "\n"))
             in
             let oracle =
               channel_bytes
                 (Oracle.Jsonl_serve.serve ~lookup:Workloads.Catalogue.lookup
                    ~admission:(Rt.Admission.create ~capacity ())
                    ())
                 text
             in
             List.iter
               (fun q ->
                 let got =
                   channel_bytes (Serve.Daemon.serve_channel (daemon q)) text
                 in
                 if got <> oracle then
                   QCheck.Test.fail_reportf
                     "serve_channel at queue %d:@.%s@.oracle:@.%s" q got oracle)
               [ 1; 2; 3; 256 ];
             let got = fd_bytes (daemon n) text in
             if got <> oracle then
               QCheck.Test.fail_reportf "serve_fd:@.%s@.oracle:@.%s" got oracle;
             true)))

let () =
  Alcotest.run "daemon"
    [
      ( "streaming",
        [
          Alcotest.test_case "two bursts on one connection" `Quick
            test_streaming_two_bursts;
          Alcotest.test_case "malformed and blank lines" `Quick
            test_malformed_and_blank_lines;
          Alcotest.test_case "megabyte line in 4 KiB fragments" `Quick
            test_long_line_roundtrip;
          Alcotest.test_case "bad \\u escape line, then ok" `Quick
            test_bad_unicode_escape_line;
          Alcotest.test_case "too deep, short table, then ok" `Quick
            test_bad_shape_lines;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "capacity-1 burst sheds busy, retry succeeds"
            `Quick test_busy_backpressure;
          Alcotest.test_case "capacity-1 solve then admit: ok, busy, admitted"
            `Quick test_admit_shed_when_full;
        ] );
      ( "admission",
        [
          Alcotest.test_case "admit/release wire path" `Quick
            test_admission_wire;
          Alcotest.test_case "state is per connection" `Quick
            test_admission_state_per_connection;
        ] );
      ( "idle timeout",
        [
          Alcotest.test_case "silent client reaped" `Quick
            test_idle_timeout_reaps_silent_client;
          Alcotest.test_case "reap survives a SIGALRM storm" `Quick
            test_idle_timeout_survives_signal_storm;
          Alcotest.test_case "byte-a-time client reaped" `Quick
            test_idle_timeout_reaps_trickling_client;
          Alcotest.test_case "bad timeouts rejected" `Quick
            test_idle_timeout_validated;
        ] );
      ( "socket",
        [
          Alcotest.test_case "listen + call round trip" `Quick
            test_socket_roundtrip;
          Alcotest.test_case "early hang-up drops only that connection" `Quick
            test_early_hangup_keeps_listener;
        ] );
      (* alcotest pads every group label to the longest one and truncates
         test names to fit 80 columns, so a label over 12 characters would
         shorten the printed names of the other groups *)
      ( "differential",
        [ loops_match_oracle ~domains:1; loops_match_oracle ~domains:2 ] );
    ]
