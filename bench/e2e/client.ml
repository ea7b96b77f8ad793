(* One `hetsched daemon` process and the single Unix-socket connection the
   benchmark drives it over. *)

exception Broken of string

let fail fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

type t = {
  pid : int;
  sock : Unix.file_descr;
  err_path : string;
  chunk : Bytes.t;
  mutable buf : string;  (* received bytes not yet returned as lines *)
  mutable pos : int;
}

(* Daemons still running; killed and reaped at exit whatever happens. *)
let live : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let status = wait () in
  live := List.filter (( <> ) pid) !live;
  status

(* Sockets and daemon logs live in a per-process directory under the
   working directory; short relative paths keep socket names within
   sun_path. *)
let root = ".e2e_run"
let dir = Filename.concat root (string_of_int (Unix.getpid ()))
let made_dir = ref false

let make_dir () =
  if not !made_dir then begin
    if not (Sys.file_exists root) then Sys.mkdir root 0o755;
    Sys.mkdir dir 0o755;
    made_dir := true
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live;
      if !made_dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir;
        if Sys.readdir root = [||] then Sys.rmdir root
      end)

(* The daemon sees the default cache and pool settings, whatever the
   caller's environment says. *)
let daemon_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"HETSCHED_" kv))
       (Array.to_list (Unix.environment ())))

let connect ~pid path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec attempt () =
    let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect sock (Unix.ADDR_UNIX path) with
    | () -> sock
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close sock;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            fail "daemon exited before accepting a connection");
        if Unix.gettimeofday () > deadline then
          fail "daemon socket %s not ready after 10 s" path;
        Unix.sleepf 0.001;
        attempt ()
  in
  attempt ()

let spawn ~exe ~domains k =
  make_dir ();
  let path = Filename.concat dir (Printf.sprintf "d%d.sock" k) in
  let err_path = Filename.concat dir (Printf.sprintf "d%d.err" k) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile err_path
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
      0o644
  in
  let pid =
    Unix.create_process_env exe
      [|
        exe; "daemon"; "--socket"; path; "--domains"; string_of_int domains;
        "--connections"; "1";
      |]
      (daemon_env ()) null err err
  in
  Unix.close null;
  Unix.close err;
  live := pid :: !live;
  let sock = connect ~pid path in
  { pid; sock; err_path; chunk = Bytes.create 65536; buf = ""; pos = 0 }

let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len

let send t s = write_all t.sock s 0 (String.length s)

let rec readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> readable fd timeout

let response_timeout = 30.0

(* Reads once, waiting at most [response_timeout] seconds. *)
let fill t =
  if not (readable t.sock response_timeout) then
    fail "no response within %.0f s" response_timeout;
  match Unix.read t.sock t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> fail "daemon closed the connection"
  | n ->
      t.buf <-
        String.sub t.buf t.pos (String.length t.buf - t.pos)
        ^ Bytes.sub_string t.chunk 0 n;
      t.pos <- 0
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let next_buffered t =
  match String.index_from_opt t.buf t.pos '\n' with
  | Some i ->
      let line = String.sub t.buf t.pos (i - t.pos) in
      t.pos <- i + 1;
      Some line
  | None -> None

let rec read_line t =
  match next_buffered t with
  | Some line -> line
  | None ->
      fill t;
      read_line t

(* Every complete line received so far, waiting for at least one. *)
let read_lines t =
  let rec drain acc =
    match next_buffered t with Some l -> drain (l :: acc) | None -> acc
  in
  match drain [] with
  | [] ->
      fill t;
      let rec more () =
        match drain [] with [] -> fill t; more () | acc -> List.rev acc
      in
      more ()
  | acc -> List.rev acc

(* utime + stime of the daemon, in microseconds (USER_HZ = 100). *)
let cpu_us t =
  let stat =
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/stat" t.pid)
      In_channel.input_all
  in
  let after = String.rindex stat ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub stat after (String.length stat - after))
  in
  let field i = float_of_string (List.nth fields i) in
  (field 11 +. field 12) *. 1e4

(* Peak resident set (VmHWM), in MB. *)
let peak_rss_mb t =
  let status =
    In_channel.with_open_bin
      (Printf.sprintf "/proc/%d/status" t.pid)
      In_channel.input_all
  in
  match
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some kb)
        else None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> fail "no VmHWM in /proc/%d/status" t.pid

type summary = { hits : int; misses : int; evictions : int }

(* Closes the connection, waits for the daemon to exit, and reads the
   cache line of its exit summary. *)
let close t =
  Unix.close t.sock;
  (match reap t.pid with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> fail "daemon exited with status %d" n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail "daemon killed by signal %d" n);
  let err = In_channel.with_open_bin t.err_path In_channel.input_all in
  match
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"cache: " l then
          Scanf.sscanf l "cache: %d hit(s), %d miss(es), %d eviction(s)"
            (fun hits misses evictions -> Some { hits; misses; evictions })
        else None)
      (String.split_on_char '\n' err)
  with
  | Some s -> s
  | None -> fail "no cache line in the daemon's exit summary"
