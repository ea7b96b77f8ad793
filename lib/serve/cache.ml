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

let warn_unparsable ~var raw ~default =
  Printf.eprintf
    "hetsched: warning: %s=%S is not an integer; using the default (%d)\n%!"
    var raw default

let int_from_env ?(getenv = Sys.getenv_opt) ~var ~default ~clamp () =
  match getenv var with
  | None -> default
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | Some n -> clamp n
      | None ->
          (* mirror Par.Pool.domains_from_env: empty/whitespace counts as
             unset, but actual garbage earns a warning instead of a silent
             fallback *)
          if String.trim raw <> "" then warn_unparsable ~var raw ~default;
          default)

let entries_from_env ?getenv () =
  int_from_env ?getenv ~var:"HETSCHED_CACHE_ENTRIES" ~default:default_entries
    ~clamp:(max 1) ()

let shards_from_env ?getenv () =
  int_from_env ?getenv ~var:"HETSCHED_CACHE_SHARDS" ~default:default_shards
    ~clamp:(fun n -> max 1 (min n max_shards))
    ()

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

let create ?entries ?shards () =
  let capacity =
    match entries with Some n -> n | None -> entries_from_env ()
  in
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Serve.Cache.create: entries %d < 1" capacity);
  let shards =
    match shards with Some n -> n | None -> shards_from_env ()
  in
  if shards < 1 then
    invalid_arg (Printf.sprintf "Serve.Cache.create: shards %d < 1" shards);
  (* never more shards than entries: a capacity-1 cache stays one shard
     with one slot (the --no-cache configuration), and every shard's
     slice is at least 1 *)
  let shards = min (min shards max_shards) capacity in
  let slice = (capacity + shards - 1) / shards in
  { shards = Array.init shards (make_shard ~slice); capacity }

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

(* Canonical serialization of a request's semantic content. Everything that
   can influence the response goes in; edge insertion order — which the
   solvers never observe (they sweep the cached smallest-ready-first
   topological orders) — is canonicalized away by sorting the edge set.
   Node ids are the instance's identity (responses are node-indexed
   arrays), so node order is NOT canonicalized; names/ops are cosmetic to
   the solvers and excluded unless [rtl] lowers them into hardware; [trace]
   only toggles span emission and is always excluded. *)
let digest (req : Core.Synthesis.request) =
  let g = req.Core.Synthesis.graph and table = req.Core.Synthesis.table in
  let n = Dfg.Graph.num_nodes g in
  let buf = Buffer.create 1024 in
  (* direct int/char appends: the digest runs on every request, and the
     Printf.sprintf formatting this replaced was the bulk of its cost *)
  let int v = Buffer.add_string buf (string_of_int v) in
  let ch c = Buffer.add_char buf c in
  ch 'n';
  int n;
  ch ';';
  let edges =
    List.sort compare
      (List.map
         (fun { Dfg.Graph.src; dst; delay; size } -> (src, dst, delay, size))
         (Dfg.Graph.edges g))
  in
  List.iter
    (fun (src, dst, delay, size) ->
      ch 'e';
      int src;
      ch ',';
      int dst;
      ch ',';
      int delay;
      ch ',';
      int size;
      ch ';')
    edges;
  let k = Fulib.Table.num_types table in
  ch 'k';
  int k;
  ch ';';
  Array.iter
    (fun c ->
      ch 'm';
      int c;
      ch ';')
    (Fulib.Table.mem_capacities table);
  for v = 0 to n - 1 do
    for ftype = 0 to k - 1 do
      int (Fulib.Table.time table ~node:v ~ftype);
      ch ',';
      int (Fulib.Table.cost table ~node:v ~ftype);
      ch ';'
    done
  done;
  ch 'T';
  int req.Core.Synthesis.deadline;
  Buffer.add_string buf ";a=";
  Buffer.add_string buf
    (Core.Synthesis.algorithm_name req.Core.Synthesis.algorithm);
  Buffer.add_string buf
    (match req.Core.Synthesis.scheduler with
    | Core.Synthesis.List_scheduling -> ";s=list"
    | Core.Synthesis.Force_directed -> ";s=force");
  Buffer.add_string buf
    (if req.Core.Synthesis.validate then ";v=true" else ";v=false");
  Buffer.add_string buf ";b=";
  (match req.Core.Synthesis.budget_ms with
  | None -> ch '-'
  | Some ms -> int ms);
  (* DVFS ladders change the solved table, so a leveled request must never
     collide with its unleveled twin (or with different ladders) *)
  Buffer.add_string buf ";L";
  (match req.Core.Synthesis.levels with
  | None -> ch '-'
  | Some levels ->
      Array.iter
        (fun ladder ->
          ch 't';
          Array.iter
            (fun (l : Fulib.Dvfs.level) ->
              ch 'l';
              int l.Fulib.Dvfs.freq_pct;
              ch ',';
              int l.Fulib.Dvfs.time_pct;
              ch ',';
              int l.Fulib.Dvfs.energy_pct;
              ch ';')
            ladder)
        levels);
  (* the rtl knob adds artifact digests and stats to the response, so a
     lowered request must never collide with its plain twin; and the module
     text (hence its digest and the unsupported list) depends on node ops,
     node names and FU type names, so those join the key exactly when the
     knob is on. Strings are length-prefixed, so no name can forge a
     section boundary. *)
  if req.Core.Synthesis.rtl then begin
    Buffer.add_string buf ";R1";
    let str s =
      int (String.length s);
      ch ':';
      Buffer.add_string buf s
    in
    for v = 0 to n - 1 do
      ch 'o';
      str (Dfg.Graph.op g v);
      str (Dfg.Graph.name g v)
    done;
    let lib = Fulib.Table.library table in
    for t = 0 to k - 1 do
      ch 'f';
      str (Fulib.Library.type_name lib t)
    done
  end
  else Buffer.add_string buf ";R0";
  Digest.to_hex (Digest.string (Buffer.contents buf))

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

let store t req resp = store_digest t (digest req) resp

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
