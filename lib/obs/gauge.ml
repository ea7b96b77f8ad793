type t = int Atomic.t

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let make name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some g -> g
      | None ->
          let g = Atomic.make 0 in
          Hashtbl.replace registry name g;
          g)

let set g v = Atomic.set g v
let value g = Atomic.get g

let value_of name =
  locked (fun () -> Option.map value (Hashtbl.find_opt registry name))

let snapshot () =
  let rows =
    locked (fun () ->
        Hashtbl.fold (fun name g acc -> (name, value g) :: acc) registry [])
  in
  List.sort compare rows

let reset_all () =
  locked (fun () -> Hashtbl.iter (fun _ g -> Atomic.set g 0) registry)
