(* Aggregate counters: every shard bumps these in addition to its own
   per-shard cells, so existing dashboards and the serve summary keep
   reading the same names. *)
let hits = Obs.Counter.make "serve.cache.hit"
let misses = Obs.Counter.make "serve.cache.miss"
let stores = Obs.Counter.make "serve.cache.store"
let evictions = Obs.Counter.make "serve.cache.evict"

let default_entries = 512
let default_shards = 8
let max_shards = 64

type entry = { response : Core.Synthesis.response; mutable used : int }

(* One shard is the whole former cache in miniature: its own hash table,
   LRU clock and mutex, plus its own counter cells. Shards never talk to
   each other, so concurrent lookups of different digests contend only
   when they land on the same shard (1/N of the time for random
   digests). *)
type shard = {
  slice : int; (* this shard's capacity *)
  table : (string, entry) Hashtbl.t;
  mutable tick : int;
  lock : Mutex.t;
  s_hits : Obs.Counter.t;
  s_misses : Obs.Counter.t;
  s_stores : Obs.Counter.t;
  s_evictions : Obs.Counter.t;
}

type t = { shards : shard array; capacity : int }

let make_shard ~slice i =
  let c kind = Obs.Counter.make (Printf.sprintf "serve.cache.shard%d.%s" i kind) in
  {
    slice;
    table = Hashtbl.create 64;
    tick = 0;
    lock = Mutex.create ();
    s_hits = c "hit";
    s_misses = c "miss";
    s_stores = c "store";
    s_evictions = c "evict";
  }

let create ?(entries = default_entries) ?(shards = default_shards) () =
  if entries < 1 then
    invalid_arg (Printf.sprintf "Serve.Cache.create: entries %d < 1" entries);
  if shards < 1 then
    invalid_arg (Printf.sprintf "Serve.Cache.create: shards %d < 1" shards);
  (* never more shards than entries: a capacity-1 cache stays one shard
     with one slot, and every shard's slice is at least 1 *)
  let shards = min (min shards max_shards) entries in
  let slice = (entries + shards - 1) / shards in
  { shards = Array.init shards (make_shard ~slice); capacity = entries }

let capacity t = t.capacity
let shard_count t = Array.length t.shards

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let length t =
  Array.fold_left
    (fun acc s -> acc + locked s (fun () -> Hashtbl.length s.table))
    0 t.shards

let shard_lengths t =
  Array.map (fun s -> locked s (fun () -> Hashtbl.length s.table)) t.shards

let clear t =
  Array.iter (fun s -> locked s (fun () -> Hashtbl.reset s.table)) t.shards

(* The key is the MD5 of the request's canonical encoding; see
   [Core.Synthesis.encode] for what it covers and what it leaves out. *)
let digest req = Digest.to_hex (Digest.string (Core.Synthesis.encode req))

(* Shard selection: the digest's first two hex characters, i.e. its top
   byte. MD5 spreads uniformly, so the byte mod N balances shards. *)
let hexval c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> 0

let shard_of_digest t key =
  if String.length key < 2 then 0
  else ((hexval key.[0] * 16) + hexval key.[1]) mod Array.length t.shards

let shard_for t key = t.shards.(shard_of_digest t key)

let find_digest t key =
  let s = shard_for t key in
  locked s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some entry ->
          s.tick <- s.tick + 1;
          entry.used <- s.tick;
          Obs.Counter.incr s.s_hits;
          Obs.Counter.incr hits;
          Some entry.response
      | None ->
          Obs.Counter.incr s.s_misses;
          Obs.Counter.incr misses;
          None)

let find t req = find_digest t (digest req)

let cacheable (resp : Core.Synthesis.response) =
  match resp.Core.Synthesis.status with
  | Core.Synthesis.Ok | Core.Synthesis.Infeasible
  | Core.Synthesis.Infeasible_memory ->
      true
  | Core.Synthesis.Timeout | Core.Synthesis.Error _ -> false

let evict_lru s =
  let victim = ref None in
  Hashtbl.iter
    (fun key entry ->
      match !victim with
      | Some (_, used) when used <= entry.used -> ()
      | _ -> victim := Some (key, entry.used))
    s.table;
  match !victim with
  | None -> ()
  | Some (key, _) ->
      Hashtbl.remove s.table key;
      Obs.Counter.incr s.s_evictions;
      Obs.Counter.incr evictions

let store_digest t key resp =
  if cacheable resp then begin
    let s = shard_for t key in
    locked s (fun () ->
        if not (Hashtbl.mem s.table key) then begin
          if Hashtbl.length s.table >= s.slice then evict_lru s;
          s.tick <- s.tick + 1;
          Hashtbl.replace s.table key { response = resp; used = s.tick };
          Obs.Counter.incr s.s_stores;
          Obs.Counter.incr stores
        end)
  end

let solve t req =
  (* digest once; find/store on the precomputed key so a miss does not
     re-serialize the whole instance *)
  let key = digest req in
  match find_digest t key with
  | Some resp -> resp
  | None ->
      let resp = Core.Synthesis.solve req in
      store_digest t key resp;
      resp
