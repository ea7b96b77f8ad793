let submitted = Obs.Counter.make "serve.requests"
let drains = Obs.Counter.make "serve.drains"
let failures = Obs.Counter.make "serve.failures"
let requests = Obs.Counter.make "serve.daemon.requests"
let served = Obs.Counter.make "serve.daemon.served"
let connections = Obs.Counter.make "serve.daemon.connections"
let malformed = Obs.Counter.make "serve.daemon.malformed"
let idle_closed = Obs.Counter.make "serve.daemon.idle_closed"
let dropped = Obs.Counter.make "serve.daemon.dropped"
let rt_admitted = Obs.Counter.make "serve.rt.admitted"
let rt_rejected = Obs.Counter.make "serve.rt.rejected"
let rt_released = Obs.Counter.make "serve.rt.released"
let rt_utilization = Obs.Gauge.make "serve.rt.utilization_pct"
let latency = Obs.Histogram.make "serve.daemon.latency_ns"
let latency_histogram () = latency

let default_queue_capacity = 256

type t = {
  lookup : Jsonl.lookup option;
  capacity : Rt.Admission.spec option;
  pool : Par.Pool.t;
  cache : Cache.t;
  queue_capacity : int;
}

let create ?lookup ?capacity ?pool ?cache
    ?(queue_capacity = default_queue_capacity) () =
  if queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "Serve.Daemon.create: queue_capacity %d < 1"
         queue_capacity);
  let pool = match pool with Some p -> p | None -> Par.Pool.global () in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  { lookup; capacity; pool; cache; queue_capacity }

let now_ns () = Unix.gettimeofday () *. 1e9

(* --- raw-fd line reader ---------------------------------------------- *)

(* The session loop needs to distinguish "no line ready right now" from
   "no line ever again": input that is merely slow must not stall the
   drain of already-queued requests. in_channel cannot express that, so
   lines are assembled by hand from Unix.read with a zero-timeout select
   probing readability. *)

type read_result = Line of string | Would_block | Eof | Idle

(* Bytes accumulate in a growable window [start, start + len) of [buf];
   [scanned] bytes at the head of the window are known newline-free, so a
   long line fragmented over many chunks is scanned once per byte, not
   once per chunk — appending, scanning and consuming are all amortized
   O(bytes), where the old string accumulator ([acc <- acc ^ chunk] plus
   a from-zero [String.index_opt] per chunk) was quadratic. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable len : int;
  mutable scanned : int;  (* head bytes of the window already scanned *)
  mutable at_eof : bool;
  chunk : Bytes.t;
}

let reader fd =
  {
    fd;
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    scanned = 0;
    at_eof = false;
    chunk = Bytes.create 4096;
  }

(* Make room for [n] more bytes: compact to offset 0 when the tail is
   full, doubling the buffer only when the data itself outgrows it. *)
let append r src n =
  if r.start + r.len + n > Bytes.length r.buf then begin
    if r.len + n > Bytes.length r.buf then begin
      let cap = ref (Bytes.length r.buf) in
      while r.len + n > !cap do
        cap := !cap * 2
      done;
      let grown = Bytes.create !cap in
      Bytes.blit r.buf r.start grown 0 r.len;
      r.buf <- grown
    end
    else Bytes.blit r.buf r.start r.buf 0 r.len;
    r.start <- 0
  end;
  Bytes.blit src 0 r.buf (r.start + r.len) n;
  r.len <- r.len + n

(* Next newline in the unscanned tail of the window, as an offset from
   [start]; remembers how far it looked on a miss. *)
let find_newline r =
  let i = ref (r.start + r.scanned) in
  let stop = r.start + r.len in
  while !i < stop && Bytes.get r.buf !i <> '\n' do
    incr i
  done;
  if !i < stop then Some (!i - r.start)
  else begin
    r.scanned <- r.len;
    None
  end

let take_buffered r i =
  let line = Bytes.sub_string r.buf r.start i in
  r.start <- r.start + i + 1;
  r.len <- r.len - i - 1;
  r.scanned <- 0;
  line

let rec readable_now fd =
  match Unix.select [ fd ] [] [] 0.0 with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable_now fd

let rec read_chunk r =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> r.at_eof <- true
  | n -> append r r.chunk n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_chunk r
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      r.at_eof <- true

(* A blocking wait for input until [deadline], an absolute wall-clock
   time ([None] waits forever). The remaining wait is recomputed from the
   deadline on every EINTR — restarting a full timeout instead would let
   a signal storm with a sub-timeout interval keep an idle session alive
   indefinitely. (Unix does not expose the monotonic clock; the wall
   clock is the closest available approximation, and a clock step only
   shifts one wait.) *)
let rec wait_readable fd ~deadline =
  let timeout =
    match deadline with None -> -1.0 | Some d -> d -. Unix.gettimeofday ()
  in
  (* a final zero-timeout probe so data racing the deadline wins *)
  if Option.is_some deadline && timeout <= 0.0 then readable_now fd
  else
    match Unix.select [ fd ] [] [] timeout with
    | [ _ ], _, _ -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd ~deadline

let rec take r ~block ~deadline =
  match find_newline r with
  | Some i -> Line (take_buffered r i)
  | None ->
      if r.at_eof then
        if r.len = 0 then Eof
        else begin
          let line = Bytes.sub_string r.buf r.start r.len in
          r.start <- 0;
          r.len <- 0;
          r.scanned <- 0;
          Line line
        end
      else if block then
        if wait_readable r.fd ~deadline then begin
          read_chunk r;
          take r ~block ~deadline
        end
        else Idle
      else if readable_now r.fd then begin
        read_chunk r;
        take r ~block ~deadline
      end
      else Would_block

(* [take_line r ~block ~idle_timeout]: the next full line if one is
   buffered or can be obtained without waiting; [Would_block] when
   [block] is false and the peer has sent nothing further yet; [Idle]
   when a blocking call completes no line within [idle_timeout] seconds
   (the deadline is set once per call, so a peer trickling bytes with no
   newline cannot keep moving it); [Eof] once the peer is done (a final
   unterminated line is still delivered first). *)
let take_line r ~block ~idle_timeout =
  let deadline =
    if block then Option.map (fun s -> Unix.gettimeofday () +. s) idle_timeout
    else None
  in
  take r ~block ~deadline

(* --- writes ----------------------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

(* The peer closed before reading its responses. *)
exception Hung_up

(* A write to a peer that hung up must fail with EPIPE rather than kill
   the whole daemon with SIGPIPE. *)
let ignore_sigpipe () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* One write per line: lines under PIPE_BUF land atomically in pipes, so
   interleaved readers never see torn responses. *)
let emit fd line =
  try write_all fd (line ^ "\n") 0 (String.length line + 1)
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Hung_up

(* --- session ----------------------------------------------------------- *)

(* One client's request stream: its line counter, its admission
   controller and a FIFO of what each fed non-blank line is owed. A
   [Reply] (an error line) is ready when fed; a [Solved] or [Verdict]
   line is a job of the next wave and keeps its request until then; a
   [Released] line needs no solve. The FIFO itself is the wave: nothing
   else holds the session's work, and a dropped session takes its jobs
   with it. Answers leave in input order, and admits and releases reach
   the controller in line order during the drain, so no answer depends
   on where the waves were cut. *)
type owed =
  | Reply of string
  | Solved of {
      id : Obs.Json.t;
      request : Core.Synthesis.request;
      t0 : float;  (* fed at, ns *)
    }
  | Verdict of {
      id : Obs.Json.t;
      task : string;
      periodic : Core.Synthesis.periodic;
      t0 : float;
    }
  | Released of { id : Obs.Json.t; task : string }

type session = {
  daemon : t;
  admission : Rt.Admission.t;
  owed : owed Queue.t;
  mutable line_no : int;
  mutable written : int;
}

let session ?admission daemon =
  let admission =
    match admission with
    | Some a -> a
    | None -> Rt.Admission.create ?capacity:daemon.capacity ()
  in
  { daemon; admission; owed = Queue.create (); line_no = 0; written = 0 }

let feed s line =
  s.line_no <- s.line_no + 1;
  if String.trim line <> "" then
    match Jsonl.line_of_string ?lookup:s.daemon.lookup ~line:s.line_no line with
    | Error msg ->
        Obs.Counter.incr malformed;
        Queue.add
          (Reply (Jsonl.error_to_string ~id:(Obs.Json.Int s.line_no) msg))
          s.owed
    | Ok l ->
        Obs.Counter.incr requests;
        let owed =
          match l with
          | Jsonl.Solve { id; request } ->
              Obs.Counter.incr submitted;
              Solved { id; request; t0 = now_ns () }
          | Jsonl.Admit { id; task; periodic } ->
              Obs.Counter.incr submitted;
              Verdict { id; task; periodic; t0 = now_ns () }
          | Jsonl.Release { id; task } -> Released { id; task }
        in
        Queue.add owed s.owed

(* Core.Synthesis.solve already converts solver exceptions into [Error]
   responses; this handler also covers anything that escapes it, so a
   pool shard can never die on a poisoned request. *)
let guarded_solve req =
  try Core.Synthesis.solve req
  with e ->
    Obs.Counter.incr failures;
    {
      Core.Synthesis.result = None;
      status = Core.Synthesis.Error (Printexc.to_string e);
      violations = [];
      stats = [];
      dvfs = None;
      rtl = None;
    }

(* One distinct request of a wave: every job with its key shares one cache
   probe, at most one solve and one serialization. [body] is [None] only
   on a slot solved in this wave, until its first answer or its store
   serializes it. [response] is the solve's, or the record the probe
   found. *)
type slot = {
  key : string option;  (* [None]: not encodable, so solved alone, uncached *)
  request : Core.Synthesis.request;
  mutable record : bool;  (* an admit among its jobs needs the record *)
  mutable body : string option;
  mutable response : Core.Synthesis.response option;
}

module Keys = Hashtbl.Make (String)

(* A duplicate within a wave takes its first job's answer: a hit. *)
let duplicate_hits = Obs.Counter.make "serve.cache.hit"

(* Probe the cache for [sl]: [true] when it must be solved. *)
let needs_solve cache sl =
  match sl.key with
  | None -> true
  | Some key -> (
      match Cache.find cache key ~record:sl.record with
      | Some (body, response) ->
          sl.body <- Some body;
          sl.response <- response;
          false
      | None -> true)

(* The slot of each of the session's jobs, in FIFO order, and the slots
   solved in this wave. Jobs are keyed before the pool map, so each
   distinct request is probed and solved once per wave, and the cache
   counters do not depend on the pool's width. The pool joins by index,
   never by completion time. *)
let solve_wave s =
  let cache = s.daemon.cache in
  let by_key = Keys.create 8 and distinct = ref [] in
  let slot_of request ~record =
    let fresh key =
      let sl = { key; request; record; body = None; response = None } in
      distinct := sl :: !distinct;
      sl
    in
    match Cache.key request with
    | exception _ -> fresh None
    | key -> (
        match Keys.find_opt by_key key with
        | Some sl ->
            Obs.Counter.incr duplicate_hits;
            if record then sl.record <- true;
            sl
        | None ->
            let sl = fresh (Some key) in
            Keys.add by_key key sl;
            sl)
  in
  let jobs =
    Array.of_seq
      (Seq.filter_map
         (function
           | Solved { request; _ } -> Some (slot_of request ~record:false)
           | Verdict { periodic; _ } ->
               Some (slot_of periodic.Core.Synthesis.request ~record:true)
           | Reply _ | Released _ -> None)
         (Queue.to_seq s.owed))
  in
  if Array.length jobs = 0 then (jobs, [||])
  else begin
    Obs.Counter.incr drains;
    Obs.Span.with_ "serve.drain" @@ fun () ->
    let misses =
      Array.of_list (List.filter (needs_solve cache) (List.rev !distinct))
    in
    let solved =
      Par.Pool.map_array s.daemon.pool
        (fun sl -> guarded_solve sl.request)
        misses
    in
    Array.iteri (fun i sl -> sl.response <- Some solved.(i)) misses;
    (jobs, misses)
  end

(* The slot's wire body: the stored one, or else its response serialized
   once. *)
let body_of sl =
  match sl.body with
  | Some body -> body
  | None ->
      let body = Jsonl.response_body (Option.get sl.response) in
      sl.body <- Some body;
      body

let store cache sl =
  Option.iter
    (fun key ->
      Cache.store cache key ~body:(body_of sl) ~record:sl.record
        (Option.get sl.response))
    sl.key

let set_utilization adm =
  Obs.Gauge.set rt_utilization
    (int_of_float (Rt.Admission.utilization adm *. 100.0))

(* Solve the session's wave once, then [emit] every owed answer in input
   order. *)
let drain s emit =
  let slots, solved = solve_wave s in
  let next = ref 0 in
  let slot () =
    let sl = slots.(!next) in
    incr next;
    sl
  in
  let adm = s.admission in
  let answer = function
    | Reply line -> line
    | Solved { id; t0; _ } ->
        let body = body_of (slot ()) in
        Obs.Histogram.observe latency (now_ns () -. t0);
        Obs.Counter.incr served;
        Jsonl.splice ~id body
    | Verdict { id; task; periodic; t0 } ->
        let verdict =
          match
            Core.Synthesis.periodic_of_response periodic
              (Option.get (slot ()).response)
          with
          | Stdlib.Ok an -> Rt.Admission.try_admit adm ~id:task an
          | Stdlib.Error reason -> Rt.Verdict.Rejected reason
        in
        (match verdict with
        | Rt.Verdict.Admitted _ -> Obs.Counter.incr rt_admitted
        | Rt.Verdict.Rejected _ -> Obs.Counter.incr rt_rejected);
        set_utilization adm;
        Obs.Histogram.observe latency (now_ns () -. t0);
        Jsonl.verdict_to_string ~id ~task verdict
    | Released { id; task } ->
        let known = Rt.Admission.release adm ~id:task in
        if known then begin
          Obs.Counter.incr rt_released;
          set_utilization adm
        end;
        Jsonl.released_to_string ~id ~task ~known
  in
  (* The wave's solves are stored once its answers are written, each with
     the body its first answer serialized; storing each one before its
     write delayed the answers a closed-loop client waits on. A client
     that hangs up mid-wave still leaves them cached. *)
  Fun.protect ~finally:(fun () -> Array.iter (store s.daemon.cache) solved)
  @@ fun () ->
  while not (Queue.is_empty s.owed) do
    emit (answer (Queue.pop s.owed));
    s.written <- s.written + 1
  done

(* --- the request loop ---------------------------------------------------- *)

(* Feed lines as they arrive; drain the wave, writing its answers to
   [emit], when input is not immediately available, at EOF, or once the
   session owes [queue_capacity] answers; block for more input only when
   nothing is owed. *)
let serve ?admission ?idle_timeout t ~input ~emit =
  (match idle_timeout with
  | Some s when not (Float.is_finite s && s > 0.0) ->
      invalid_arg
        (Printf.sprintf "Serve.Daemon.serve: idle timeout %g must be > 0" s)
  | _ -> ());
  let r = reader input in
  let s = session ?admission t in
  let rec loop () =
    match take_line r ~block:(Queue.is_empty s.owed) ~idle_timeout with
    | Line line ->
        feed s line;
        if Queue.length s.owed >= t.queue_capacity then drain s emit;
        loop ()
    | Would_block ->
        drain s emit;
        loop ()
    | Idle ->
        (* only reachable while blocking, i.e. with nothing owed *)
        Obs.Counter.incr idle_closed
    | Eof -> drain s emit
  in
  (* Only this session ends; its unsolved jobs die with it. *)
  (try loop () with Hung_up -> Obs.Counter.incr dropped);
  s.written

let serve_fd ?idle_timeout t ~input ~output =
  ignore_sigpipe ();
  Obs.Counter.incr connections;
  serve ?idle_timeout t ~input ~emit:(emit output)

(* --- unix-domain socket listener -------------------------------------- *)

let unlink_quiet path = try Unix.unlink path with Unix.Unix_error _ -> ()

let listen ?connections:limit ?idle_timeout t ~path () =
  (match limit with
  | Some n when n < 1 ->
      invalid_arg (Printf.sprintf "Serve.Daemon.listen: connections %d < 1" n)
  | _ -> ());
  ignore_sigpipe ();
  unlink_quiet path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      unlink_quiet path)
  @@ fun () ->
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  (* Connections are served one at a time: a connection is a batch
     session, and the pool is busy solving it anyway. Later
     arrivals queue in the kernel backlog until accept. *)
  let total = ref 0 in
  let rec accept_loop remaining =
    if remaining <> Some 0 then begin
      match Unix.accept sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop remaining
      | fd, _ ->
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              total := !total + serve_fd ?idle_timeout t ~input:fd ~output:fd);
          accept_loop (Option.map (fun n -> n - 1) remaining)
    end
  in
  accept_loop limit;
  !total

(* --- client ------------------------------------------------------------ *)

let count_newlines s =
  String.fold_left (fun acc c -> if c = '\n' then acc + 1 else acc) 0 s

let call ~path ~input ~output =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect sock (Unix.ADDR_UNIX path);
  (* A separate domain pushes request lines while this one pulls response
     lines, so neither side of the socket can deadlock on a full pipe. *)
  let writer =
    Domain.spawn (fun () ->
        let rec push () =
          match input_line input with
          | line ->
              write_all sock (line ^ "\n") 0 (String.length line + 1);
              push ()
          | exception End_of_file -> Unix.shutdown sock Unix.SHUTDOWN_SEND
        in
        push ())
  in
  let buf = Bytes.create 4096 in
  let count = ref 0 in
  let rec pull () =
    match Unix.read sock buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        let s = Bytes.sub_string buf 0 n in
        output_string output s;
        count := !count + count_newlines s;
        pull ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> pull ()
  in
  pull ();
  Domain.join writer;
  flush output;
  !count
