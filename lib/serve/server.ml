let submitted = Obs.Counter.make "serve.requests"
let drains = Obs.Counter.make "serve.drains"
let failures = Obs.Counter.make "serve.failures"

let default_queue_capacity = 256

type t = {
  pool : Par.Pool.t;
  cache : Cache.t;
  queue_capacity : int;
  queue : Core.Synthesis.request Queue.t;
}

let create ?pool ?cache ?(queue_capacity = default_queue_capacity) () =
  if queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "Serve.Server.create: queue_capacity %d < 1"
         queue_capacity);
  let pool = match pool with Some p -> p | None -> Par.Pool.global () in
  let cache = match cache with Some c -> c | None -> Cache.create () in
  { pool; cache; queue_capacity; queue = Queue.create () }

let queue_capacity t = t.queue_capacity
let pending t = Queue.length t.queue
let discard t = Queue.clear t.queue

let try_submit t req =
  if Queue.length t.queue >= t.queue_capacity then false
  else begin
    Queue.add req t.queue;
    Obs.Counter.incr submitted;
    true
  end

(* Core.Synthesis.solve already converts solver exceptions into [Error]
   responses; this belt-and-braces handler additionally covers anything the
   cache layer itself could raise, so a pool shard can never die on a
   poisoned request. *)
let guarded_solve t req =
  try Cache.solve t.cache req
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

let drain t =
  let batch = Array.of_seq (Queue.to_seq t.queue) in
  Queue.clear t.queue;
  if Array.length batch = 0 then []
  else begin
    Obs.Counter.incr drains;
    Obs.Span.with_
      (Printf.sprintf "serve.drain:%d" (Array.length batch))
    @@ fun () ->
    Array.to_list (Par.Pool.map_array t.pool (guarded_solve t) batch)
  end
