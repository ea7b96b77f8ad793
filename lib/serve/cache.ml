let hits = Obs.Counter.make "serve.cache.hit"
let misses = Obs.Counter.make "serve.cache.miss"
let stores = Obs.Counter.make "serve.cache.store"
let evictions = Obs.Counter.make "serve.cache.evict"

let default_entries = 512
let default_shards = 8

module Table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Every entry sits on one circular doubly-linked recency list through a
   sentinel: [sentinel.next] is the most recently used entry and
   [sentinel.prev] the least. The sentinel is the only node whose
   [response] is [None], so a hit returns its entry's field as is. *)
type entry = {
  key : string;
  response : Core.Synthesis.response option;
  mutable prev : entry;
  mutable next : entry;
}

type t = {
  capacity : int;
  table : entry Table.t;
  sentinel : entry;
  lock : Mutex.t;
}

let create ?(entries = default_entries) ?shards:_ () =
  if entries < 1 then
    invalid_arg (Printf.sprintf "Serve.Cache.create: entries %d < 1" entries);
  let rec sentinel =
    { key = ""; response = None; prev = sentinel; next = sentinel }
  in
  {
    capacity = entries;
    table = Table.create (min entries 4096);
    sentinel;
    lock = Mutex.create ();
  }

let capacity t = t.capacity
let length t = Mutex.protect t.lock (fun () -> Table.length t.table)

(* The key is the MD5 of the request's canonical encoding; see
   [Core.Synthesis.encode] for what it covers and what it leaves out. *)
let digest req = Digest.to_hex (Digest.string (Core.Synthesis.encode req))

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  let first = t.sentinel.next in
  e.prev <- t.sentinel;
  e.next <- first;
  first.prev <- e;
  t.sentinel.next <- e

let find_digest t key =
  Mutex.protect t.lock (fun () ->
      match Table.find t.table key with
      | e ->
          unlink e;
          push_front t e;
          Obs.Counter.incr hits;
          e.response
      | exception Not_found ->
          Obs.Counter.incr misses;
          None)

let cacheable (resp : Core.Synthesis.response) =
  match resp.Core.Synthesis.status with
  | Core.Synthesis.Ok | Core.Synthesis.Infeasible
  | Core.Synthesis.Infeasible_memory ->
      true
  | Core.Synthesis.Timeout | Core.Synthesis.Error _ -> false

let store_digest t key resp =
  if cacheable resp then
    Mutex.protect t.lock (fun () ->
        if not (Table.mem t.table key) then begin
          if Table.length t.table >= t.capacity then begin
            let lru = t.sentinel.prev in
            unlink lru;
            Table.remove t.table lru.key;
            Obs.Counter.incr evictions
          end;
          let e =
            { key; response = Some resp; prev = t.sentinel; next = t.sentinel }
          in
          push_front t e;
          Table.add t.table key e;
          Obs.Counter.incr stores
        end)

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
