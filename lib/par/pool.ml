(* One batch runs at a time; workers and the submitter pull task indices
   from a shared atomic counter, so the work-stealing order is free but the
   result placement (by index) is not. *)

exception Nested_pool

let c_batches = Obs.Counter.make "pool.batches"
let c_tasks = Obs.Counter.make "pool.tasks"
let g_domains = Obs.Gauge.make "pool.domains"

(* per-domain task counts: [0] is the submitting domain, workers are 1.. *)
let domain_task_counter =
  let cache = Hashtbl.create 8 in
  let m = Mutex.create () in
  fun idx ->
    Mutex.lock m;
    let c =
      match Hashtbl.find_opt cache idx with
      | Some c -> c
      | None ->
          let c = Obs.Counter.make (Printf.sprintf "pool.tasks.domain%d" idx) in
          Hashtbl.replace cache idx c;
          c
    in
    Mutex.unlock m;
    c

type batch = {
  run : int -> unit;  (* must not raise: map_array captures per index *)
  count : int;
  next : int Atomic.t;
  unfinished : int Atomic.t;
}

type t = {
  size : int;
  m : Mutex.t;
  work : Condition.t;  (* new batch published, or shutdown *)
  idle : Condition.t;  (* batch drained / submission slot freed *)
  mutable batch : batch option;
  mutable epoch : int;  (* bumped per published batch *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let in_task_key = Domain.DLS.new_key (fun () -> false)
let in_task () = Domain.DLS.get in_task_key

let exec_tasks ?(domain_counter = domain_task_counter 0) t b =
  let rec loop () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.count then begin
      b.run i;
      Obs.Counter.incr c_tasks;
      Obs.Counter.incr domain_counter;
      if Atomic.fetch_and_add b.unfinished (-1) = 1 then begin
        (* last task of the batch: wake the submitter *)
        Mutex.lock t.m;
        Condition.broadcast t.idle;
        Mutex.unlock t.m
      end;
      loop ()
    end
  in
  loop ()

let rec worker_loop t ~domain_counter seen =
  Mutex.lock t.m;
  while (not t.stop) && t.epoch = seen do
    Condition.wait t.work t.m
  done;
  let stop = t.stop and epoch = t.epoch and b = t.batch in
  Mutex.unlock t.m;
  if not stop then begin
    (match b with Some b -> exec_tasks ~domain_counter t b | None -> ());
    worker_loop t ~domain_counter epoch
  end

let max_domains = 128

let domains_from_env ?(getenv = Sys.getenv_opt) () =
  match getenv "HETSCHED_DOMAINS" with
  | None -> Domain.recommended_domain_count ()
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d -> max 1 (min d max_domains)
      | None -> Domain.recommended_domain_count ())

let create ?domains () =
  if in_task () then raise Nested_pool;
  let size =
    match domains with
    | Some d when d < 1 -> invalid_arg "Par.Pool.create: domains < 1"
    | Some d -> min d max_domains
    | None -> domains_from_env ()
  in
  let t =
    {
      size;
      m = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      batch = None;
      epoch = 0;
      stop = false;
      workers = [||];
    }
  in
  Obs.Gauge.set g_domains size;
  if size > 1 then
    t.workers <-
      Array.init (size - 1) (fun i ->
          let domain_counter = domain_task_counter (i + 1) in
          Domain.spawn (fun () ->
              (* a worker domain only ever runs pool tasks *)
              Domain.DLS.set in_task_key true;
              worker_loop t ~domain_counter 0));
  t

let domain_count t = t.size

let shutdown t =
  if in_task () then raise Nested_pool;
  Mutex.lock t.m;
  let already = t.stop in
  t.stop <- true;
  Condition.broadcast t.work;
  Condition.broadcast t.idle;
  Mutex.unlock t.m;
  if not already then Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* --- The process-wide pool ------------------------------------------- *)

let sequential =
  {
    size = 1;
    m = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    batch = None;
    epoch = 0;
    stop = false;
    workers = [||];
  }

let global_m = Mutex.create ()
let global_pool = ref None

let global () =
  if in_task () then sequential
  else begin
    Mutex.lock global_m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock global_m)
      (fun () ->
        match !global_pool with
        | Some p -> p
        | None ->
            let p = create () in
            global_pool := Some p;
            p)
  end

let set_global_domains d =
  if in_task () then raise Nested_pool;
  let p = create ~domains:d () in
  Mutex.lock global_m;
  let old = !global_pool in
  global_pool := Some p;
  Mutex.unlock global_m;
  match old with Some o -> shutdown o | None -> ()

(* --- Batch submission -------------------------------------------------- *)

(* [run] must not raise. *)
let run_batch t ~count ~run =
  if count > 0 then begin
    Obs.Counter.incr c_batches;
    if t.size = 1 || in_task () then begin
      let domain_counter = domain_task_counter 0 in
      for i = 0 to count - 1 do
        run i;
        Obs.Counter.incr c_tasks;
        Obs.Counter.incr domain_counter
      done
    end
    else begin
      Mutex.lock t.m;
      while (not t.stop) && t.batch <> None do
        Condition.wait t.idle t.m
      done;
      if t.stop then begin
        Mutex.unlock t.m;
        invalid_arg "Par.Pool: pool used after shutdown"
      end;
      let b =
        { run; count; next = Atomic.make 0; unfinished = Atomic.make count }
      in
      t.batch <- Some b;
      t.epoch <- t.epoch + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      (* participate: the submitter is one of the pool's domains *)
      Domain.DLS.set in_task_key true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_task_key false)
        (fun () -> exec_tasks t b);
      Mutex.lock t.m;
      while Atomic.get b.unfinished > 0 do
        Condition.wait t.idle t.m
      done;
      t.batch <- None;
      Condition.broadcast t.idle;
      Mutex.unlock t.m
    end
  end

(* Impossible-state reporting: these states mean the batch accounting
   itself broke (a slot neither filled nor errored after the batch
   drained), so a bare assertion would leave a field failure
   undiagnosable. Name the combinator and the state instead. *)
let invariant_violation fmt =
  Printf.ksprintf
    (fun s -> failwith ("Par.Pool: internal invariant violated: " ^ s))
    fmt

let reraise_first errors =
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors

(* --- The combinator ---------------------------------------------------- *)

let map_array t f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    run_batch t ~count:n ~run:(fun i ->
        match f arr.(i) with
        | v -> results.(i) <- Some v
        | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
    reraise_first errors;
    Array.mapi
      (fun i r ->
        match r with
        | Some v -> v
        | None ->
            invariant_violation
              "map_array: batch of %d tasks drained but slot %d holds \
               neither a result nor an error (task body skipped or index \
               raced past the batch count)"
              n i)
      results
  end
