(* DVFS levels as a pure table-to-table expansion: a (type, level) pair
   becomes one expanded FU type, so assignment under DVFS is ordinary
   assignment over the expanded table and no solver needs to know about
   frequencies. The [mapping] records how to fold expanded types back to
   (base, level) for reporting, reclamation, and the energy oracle. *)

type level = { freq_pct : int; time_pct : int; energy_pct : int }

let nominal = { freq_pct = 100; time_pct = 100; energy_pct = 100 }

let level ?time_pct ?energy_pct freq_pct =
  if freq_pct < 1 || freq_pct > 100 then
    invalid_arg "Dvfs.level: freq_pct must be in 1..100";
  let time_pct =
    match time_pct with
    | Some t ->
        if t < 100 then
          invalid_arg "Dvfs.level: time_pct < 100 (lower clock never faster)";
        t
    | None -> ((100 * 100) + freq_pct - 1) / freq_pct
  in
  let energy_pct =
    match energy_pct with
    | Some e ->
        if e < 0 then invalid_arg "Dvfs.level: negative energy_pct";
        e
    | None -> max 1 (freq_pct * freq_pct / 100)
  in
  { freq_pct; time_pct; energy_pct }

let scale_time l t = max 1 (((t * l.time_pct) + 99) / 100)
let scale_energy l c = ((c * l.energy_pct) + 50) / 100

let ladder = function
  | [] -> invalid_arg "Dvfs.ladder: empty"
  | f :: _ when f <> 100 ->
      invalid_arg "Dvfs.ladder: level 0 must be the nominal 100%"
  | freqs -> Array.of_list (List.map (fun f -> level f) freqs)

(* 100% down to 50% in equal frequency steps; 1 level = nominal only. *)
let uniform_freqs levels =
  if levels < 1 || levels > 16 then
    invalid_arg "Dvfs.uniform: levels must be in 1..16";
  List.init levels (fun i ->
      if levels = 1 then 100 else 100 - (50 * i / (levels - 1)))

let uniform ~levels ~types =
  if types < 1 then invalid_arg "Dvfs.uniform: types must be >= 1";
  let l = ladder (uniform_freqs levels) in
  Array.init types (fun _ -> l)

let of_freqs per_type =
  if per_type = [] then invalid_arg "Dvfs.of_freqs: empty";
  Array.of_list (List.map ladder per_type)

type mapping = {
  base : int array;
  level : int array;
  first : int array;
  levels : level array array;
}

let num_expanded m = Array.length m.base
let num_base m = Array.length m.first - 1

let siblings m e =
  let b = m.base.(e) in
  List.init (m.first.(b + 1) - m.first.(b)) (fun i -> m.first.(b) + i)

let expand table ~levels =
  let k = Table.num_types table in
  if Array.length levels <> k then
    invalid_arg "Dvfs.expand: one level ladder per base type required";
  Array.iter
    (fun l -> if Array.length l = 0 then invalid_arg "Dvfs.expand: empty ladder")
    levels;
  let first = Array.make (k + 1) 0 in
  for b = 0 to k - 1 do
    first.(b + 1) <- first.(b) + Array.length levels.(b)
  done;
  let k' = first.(k) in
  let base = Array.make k' 0 and lvl = Array.make k' 0 in
  let names = Array.make k' "" in
  let caps = Array.make k' Library.unbounded_mem in
  let lib = Table.library table in
  for b = 0 to k - 1 do
    Array.iteri
      (fun i l ->
        let e = first.(b) + i in
        base.(e) <- b;
        lvl.(e) <- i;
        names.(e) <-
          (if l.freq_pct = 100 then Library.type_name lib b
           else Printf.sprintf "%s@%d" (Library.type_name lib b) l.freq_pct);
        caps.(e) <- Library.mem_capacity lib b)
      levels.(b)
  done;
  let n = Table.num_nodes table in
  let time = Array.make_matrix n k' 0 and cost = Array.make_matrix n k' 0 in
  for v = 0 to n - 1 do
    for e = 0 to k' - 1 do
      let b = base.(e) in
      let l = levels.(b).(lvl.(e)) in
      time.(v).(e) <- scale_time l (Table.time table ~node:v ~ftype:b);
      cost.(v).(e) <- scale_energy l (Table.cost table ~node:v ~ftype:b)
    done
  done;
  let library = Library.make ~mem_capacity:caps names in
  (Table.make ~library ~time ~cost, { base; level = lvl; first; levels })
