(* How fast the shared host runs the benchmark at a given moment.

   Neighbours on a shared host slow every process, the daemon's CPU time
   per request included: by about 1.7x in spells of seconds, and by 10-20%
   from one half hour to the next. The probe is a fixed piece of work in
   this process, timed between the phases of each cycle. Time metrics are
   divided by its slowdown, so they move with the daemon's code, not with
   the host. The work mixes what the daemon does per request: formatted
   strings, hashing, short-lived lists, sorting and a digest. It must
   never change: numbers taken with two versions of it do not compare. *)

(* The probe's time on a 2-vCPU shared VM when no neighbour contends.
   Time metrics read as they would on a host that runs the probe in
   exactly this long. *)
let nominal_us = 10_500.0

let probe_us () =
  (* The probe's allocations must not pay for collecting the garbage
     the workload left behind, which differs between workloads. *)
  Gc.full_major ();
  let t0 = Trace.now_ns () in
  let table = Hashtbl.create 1024 in
  let state = ref 12345 in
  let text = Buffer.create 4096 in
  for i = 0 to 20_000 do
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    let key = Printf.sprintf "k%d" (!state mod 5000) in
    Hashtbl.replace table key
      (i :: Option.value ~default:[] (Hashtbl.find_opt table key));
    if i mod 7 = 0 then Buffer.add_string text key
  done;
  let a = Array.init 20_000 (fun i -> i * 7919 mod 20_011) in
  Array.sort compare a;
  ignore (Sys.opaque_identity (Digest.string (Buffer.contents text), table, a));
  float_of_int (Trace.now_ns () - t0) /. 1e3

(* The host's time for the probe over its nominal time: 1 at nominal
   speed, about 1.7 in a contended spell. *)
let slowdown () = probe_us () /. nominal_us
