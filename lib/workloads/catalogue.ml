let table_slots = 64

(* One lock guards the suite (built on first use) and the table memo.
   Misses draw their table under the lock: a draw is a few microseconds,
   and two domains asking for the same pair then share one table instead
   of racing to build two. *)
let lock = Mutex.create ()

let suite = lazy (Filters.extended ())

let tables : (string * int, Fulib.Table.t) Hashtbl.t = Hashtbl.create table_slots
let arrivals : (string * int) Queue.t = Queue.create ()

let names () = Mutex.protect lock (fun () -> List.map fst (Lazy.force suite))

let draw name ~seed g =
  let table = Tables.seeded ~seed g in
  if Hashtbl.length tables >= table_slots then
    Hashtbl.remove tables (Queue.pop arrivals);
  Hashtbl.replace tables (name, seed) table;
  Queue.push (name, seed) arrivals;
  table

let lookup name ~seed =
  Mutex.protect lock (fun () ->
      match List.assoc_opt name (Lazy.force suite) with
      | None -> None
      | Some g -> (
          match Hashtbl.find_opt tables (name, seed) with
          | Some table -> Some (g, table)
          | None -> Some (g, draw name ~seed g)))

let memoized () = Mutex.protect lock (fun () -> Hashtbl.length tables)
