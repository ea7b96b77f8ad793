(* Timings of layer calls, taken from outside each call: a total and a
   call count per layer name, plus (when recording) one span per call for
   the Chrome trace. Spans of one request share its id. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = { name : string; req : int; start : int; dur : int }

type t = {
  totals : (string, int ref * int ref) Hashtbl.t;  (* ns, calls *)
  record : bool;
  mutable spans : span list;
  mutable req : int;
}

let create ~record = { totals = Hashtbl.create 32; record; spans = []; req = 0 }

let add t name ns =
  match Hashtbl.find_opt t.totals name with
  | Some (total, calls) ->
      total := !total + ns;
      incr calls
  | None -> Hashtbl.replace t.totals name (ref ns, ref 1)

let time t name f =
  let t0 = now_ns () in
  let v = f () in
  let dur = now_ns () - t0 in
  add t name dur;
  if t.record then t.spans <- { name; req = t.req; start = t0; dur } :: t.spans;
  v

(* Total microseconds and calls of [name] over several traces. *)
let sum traces name =
  List.fold_left
    (fun (us, calls) t ->
      match Hashtbl.find_opt t.totals name with
      | Some (ns, c) -> (us +. (float_of_int !ns /. 1e3), calls + !c)
      | None -> (us, calls))
    (0.0, 0) traces

let mean_us traces name =
  let us, calls = sum traces name in
  if calls = 0 then 0.0 else us /. float_of_int calls

(* Chrome trace event format ("X" complete events, microseconds); [pid]
   separates the workloads of one run. *)
let write_chrome path traces =
  let oc = open_out path in
  output_string oc {|{"traceEvents":[|};
  let first = ref true in
  List.iter
    (fun (pid, t) ->
      List.iter
        (fun s ->
          if not !first then output_char oc ',';
          first := false;
          Printf.fprintf oc
            {|{"name":"%s","ph":"X","pid":%d,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"req":%d}}|}
            s.name pid
            (float_of_int s.start /. 1e3)
            (float_of_int s.dur /. 1e3)
            s.req)
        (List.rev t.spans))
    traces;
  output_string oc "]}\n";
  close_out oc
