type spec = Uniform of int | Per_type of int array

let default_uniform_capacity = 2

let spec_to_string = function
  | Uniform n -> string_of_int n
  | Per_type a ->
      String.concat "-" (Array.to_list (Array.map string_of_int a))

let spec_of_string s =
  let s = String.trim s in
  let parts =
    String.split_on_char '-' s |> List.concat_map (String.split_on_char ',')
  in
  let ints = List.map (fun p -> int_of_string_opt (String.trim p)) parts in
  if List.exists Option.is_none ints || parts = [] then
    Error
      (Printf.sprintf
         "capacity %S: expected an instance count (\"4\") or per-type \
          counts (\"2-1-3\")"
         s)
  else
    match List.filter_map Fun.id ints with
    | [ n ] when n >= 1 -> Ok (Uniform n)
    | [ n ] -> Error (Printf.sprintf "capacity %d < 1" n)
    | counts when List.for_all (fun c -> c >= 0) counts ->
        Ok (Per_type (Array.of_list counts))
    | _ -> Error (Printf.sprintf "capacity %S: negative instance count" s)

type admitted = {
  id : string;
  analysed : Task.analysed;
  mutable response_time : int;
}

type t = { spec : spec; mutable entries : admitted list }

let create ?(capacity = Uniform default_uniform_capacity) () =
  (match capacity with
  | Uniform n when n < 1 ->
      invalid_arg (Printf.sprintf "Rt.Admission.create: capacity %d < 1" n)
  | Uniform _ -> ()
  | Per_type a ->
      if Array.length a = 0 then
        invalid_arg "Rt.Admission.create: empty per-type capacity";
      Array.iter
        (fun c ->
          if c < 0 then
            invalid_arg
              (Printf.sprintf "Rt.Admission.create: capacity %d < 0" c))
        a);
  { spec = capacity; entries = [] }

let capacity t = t.spec
let admitted t = t.entries
let find t ~id = List.find_opt (fun e -> e.id = id) t.entries

let utilization t =
  List.fold_left
    (fun acc e -> acc +. e.analysed.Task.utilization)
    0.0 t.entries

let capacity_array t k =
  match t.spec with Uniform n -> Array.make k n | Per_type a -> Array.copy a

let heavy_reserved t k =
  let r = Array.make k 0 in
  List.iter
    (fun e ->
      if e.analysed.Task.heavy then
        Array.iteri
          (fun ftype c -> r.(ftype) <- r.(ftype) + c)
          e.analysed.Task.config)
    t.entries;
  r

let width t =
  match t.entries with
  | e :: _ -> Some (Fulib.Table.num_types e.analysed.Task.task.Task.table)
  | [] -> ( match t.spec with Per_type a -> Some (Array.length a) | _ -> None)

let lights t = List.filter (fun e -> not e.analysed.Task.heavy) t.entries

let light_of id (an : Task.analysed) =
  {
    Response_time.id;
    cost = an.Task.makespan;
    period = an.Task.task.Task.period;
    deadline = an.Task.task.Task.deadline;
  }

(* First type whose demand exceeds what remains, as the witness. *)
let fits_or_witness ~need ~have =
  let k = Array.length need in
  let rec scan ftype =
    if ftype >= k then None
    else if need.(ftype) > have.(ftype) then
      Some
        (Verdict.Insufficient_capacity
           { ftype; need = need.(ftype); have = have.(ftype) })
    else scan (ftype + 1)
  in
  scan 0

let try_admit t ~id (an : Task.analysed) =
  let k = Fulib.Table.num_types an.Task.task.Task.table in
  match find t ~id with
  | Some _ -> Verdict.Rejected (Verdict.Duplicate_id id)
  | None -> (
      match width t with
      | Some expected when expected <> k ->
          Verdict.Rejected (Verdict.Width_mismatch { expected; got = k })
      | _ -> (
          let cap = capacity_array t k and reserved = heavy_reserved t k in
          let free =
            Array.init k (fun ftype -> cap.(ftype) - reserved.(ftype))
          in
          if an.Task.heavy then
            match fits_or_witness ~need:an.Task.config ~have:free with
            | Some reason -> Verdict.Rejected reason
            | None -> (
                (* the shrunk residual must still carry every admitted
                   light task's peak demand *)
                let next_free =
                  Array.init k (fun ftype ->
                      free.(ftype) - an.Task.config.(ftype))
                in
                let light_clash =
                  List.find_map
                    (fun e ->
                      fits_or_witness ~need:e.analysed.Task.config
                        ~have:next_free)
                    (lights t)
                in
                match light_clash with
                | Some reason -> Verdict.Rejected reason
                | None ->
                    let entry =
                      { id; analysed = an; response_time = an.Task.makespan }
                    in
                    t.entries <- t.entries @ [ entry ];
                    Verdict.Admitted
                      (Task.reservation an ~response_time:an.Task.makespan))
          else
            match fits_or_witness ~need:an.Task.config ~have:free with
            | Some reason -> Verdict.Rejected reason
            | None -> (
                let lights_after =
                  List.map (fun e -> light_of e.id e.analysed) (lights t)
                  @ [ light_of id an ]
                in
                match Response_time.analyse lights_after with
                | Response_time.Utilization_overrun u ->
                    Verdict.Rejected
                      (Verdict.Utilization_overrun
                         {
                           utilization = u;
                           bound = Response_time.utilization_bound;
                         })
                | Response_time.Response_overrun { id; response; deadline } ->
                    Verdict.Rejected
                      (Verdict.Response_overrun { id; response; deadline })
                | Response_time.Schedulable responses ->
                    let entry = { id; analysed = an; response_time = 0 } in
                    t.entries <- t.entries @ [ entry ];
                    List.iter
                      (fun (rid, r) ->
                        match find t ~id:rid with
                        | Some e -> e.response_time <- r
                        | None -> ())
                      responses;
                    Verdict.Admitted
                      (Task.reservation an ~response_time:entry.response_time))))

let release t ~id =
  match find t ~id with
  | None -> false
  | Some _ ->
      t.entries <- List.filter (fun e -> e.id <> id) t.entries;
      (* interference only shrank: the remaining lights stay schedulable,
         but their reported response times tighten — re-derive them *)
      (match
         Response_time.analyse
           (List.map (fun e -> light_of e.id e.analysed) (lights t))
       with
      | Response_time.Schedulable responses ->
          List.iter
            (fun (rid, r) ->
              match find t ~id:rid with
              | Some e -> e.response_time <- r
              | None -> ())
            responses
      | Response_time.Utilization_overrun _
      | Response_time.Response_overrun _ ->
          (* unreachable: a subset of a schedulable set is schedulable *)
          ());
      true
