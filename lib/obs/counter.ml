type t = int Atomic.t

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let make name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.replace registry name c;
          c)

let incr c = ignore (Atomic.fetch_and_add c 1)
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let value_of name =
  locked (fun () -> Option.map value (Hashtbl.find_opt registry name))

let snapshot () =
  let rows =
    locked (fun () ->
        Hashtbl.fold (fun name c acc -> (name, value c) :: acc) registry [])
  in
  List.sort compare rows

let reset_all () =
  locked (fun () -> Hashtbl.iter (fun _ c -> Atomic.set c 0) registry)
