let hits = Obs.Counter.make "serve.cache.hit"
let misses = Obs.Counter.make "serve.cache.miss"
let stores = Obs.Counter.make "serve.cache.store"
let evictions = Obs.Counter.make "serve.cache.evict"

let default_entries = 512
let default_shards = 8

(* [Hashtbl.hash] reads every byte of a string key; [String.equal]
   compares the whole key, so a hash collision is only a shared bucket. *)
module Table = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* Every entry sits on one circular doubly-linked recency list through a
   sentinel: [sentinel.next] is the most recently used entry and
   [sentinel.prev] the least. [response] is set only when an admit needs
   the record. *)
type entry = {
  key : string;
  body : string;
  mutable response : Core.Synthesis.response option;
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
    { key = ""; body = ""; response = None; prev = sentinel; next = sentinel }
  in
  {
    capacity = entries;
    table = Table.create (min entries 4096);
    sentinel;
    lock = Mutex.create ();
  }

let capacity t = t.capacity
let length t = Mutex.protect t.lock (fun () -> Table.length t.table)

(* See [Core.Synthesis.encode] for what the key covers and what it leaves
   out. *)
let key = Core.Synthesis.encode

let unlink e =
  e.prev.next <- e.next;
  e.next.prev <- e.prev

let push_front t e =
  let first = t.sentinel.next in
  e.prev <- t.sentinel;
  e.next <- first;
  first.prev <- e;
  t.sentinel.next <- e

let find t key ~record =
  Mutex.protect t.lock (fun () ->
      match Table.find t.table key with
      | e when (not record) || Option.is_some e.response ->
          unlink e;
          push_front t e;
          Obs.Counter.incr hits;
          Some (e.body, e.response)
      | _ ->
          Obs.Counter.incr misses;
          None
      | exception Not_found ->
          Obs.Counter.incr misses;
          None)

let cacheable (resp : Core.Synthesis.response) =
  match resp.Core.Synthesis.status with
  | Core.Synthesis.Ok | Core.Synthesis.Infeasible
  | Core.Synthesis.Infeasible_memory ->
      true
  | Core.Synthesis.Timeout | Core.Synthesis.Error _ -> false

let store t key ~body ~record resp =
  if cacheable resp then
    let response = if record then Some resp else None in
    Mutex.protect t.lock (fun () ->
        match Table.find t.table key with
        | e -> if Option.is_none e.response then e.response <- response
        | exception Not_found ->
            if Table.length t.table >= t.capacity then begin
              let lru = t.sentinel.prev in
              unlink lru;
              Table.remove t.table lru.key;
              Obs.Counter.incr evictions
            end;
            let e =
              { key; body; response; prev = t.sentinel; next = t.sentinel }
            in
            push_front t e;
            Table.add t.table key e;
            Obs.Counter.incr stores)

let digest = key

let find_digest t key =
  match find t key ~record:true with Some (_, r) -> r | None -> None

let store_digest t key resp =
  if cacheable resp then
    store t key ~body:(Jsonl.response_body resp) ~record:true resp
