(* Only the flat view is stored: [times.(v * k + t)] indexing plus
   per-node minimum rows, all built by the constructor. The solver kernels
   (the tree DP, Exact's bounds, Greedy's sweeps) iterate over these
   arrays directly. Nothing is filled in later, so a table is immutable
   once built and safe to share across domains; [with_mem_capacity]
   shares the arrays of the table it came from. *)
type t = {
  library : Library.t;
  k : int;
  times : int array;
  costs : int array;
  min_times : int array;
  min_time_types : int array;
  min_costs : int array;
  min_cost_types : int array;
}

(* Index of the first minimum of [a.(off) .. a.(off + k - 1)], relative
   to [off]: the smallest type on ties. *)
let arg_min (a : int array) off k =
  let best = ref 0 in
  for t = 1 to k - 1 do
    if a.(off + t) < a.(off + !best) then best := t
  done;
  !best

let of_flat library ~k times costs =
  let n = Array.length times / k in
  let min_times = Array.make n 0 and min_time_types = Array.make n 0 in
  let min_costs = Array.make n 0 and min_cost_types = Array.make n 0 in
  for v = 0 to n - 1 do
    let off = v * k in
    let tt = arg_min times off k and ct = arg_min costs off k in
    min_time_types.(v) <- tt;
    min_times.(v) <- times.(off + tt);
    min_cost_types.(v) <- ct;
    min_costs.(v) <- costs.(off + ct)
  done;
  { library; k; times; costs; min_times; min_time_types; min_costs; min_cost_types }

let max_cell = 1 lsl 32

(* Rows are checked and copied in one pass, time rows before cost rows,
   each row's width before its cells. The copy is an explicit loop:
   [n * k] often passes the minor-heap size limit, and [Array.blit] into
   a major-heap block stores field by field through the write barrier. *)
type matrix = { what : string; least : int; bad : string }

let time_cells = { what = "time"; least = 1; bad = "Table.make: time < 1" }
let cost_cells = { what = "cost"; least = 0; bad = "Table.make: negative cost" }

(* Row [v], [width] cells of [src] from [off], into [flat]. *)
let copy_row m ~k flat v src off width =
  if width <> k then
    invalid_arg (Printf.sprintf "Table.make: %s row has wrong width" m.what);
  for t = 0 to k - 1 do
    let x = src.(off + t) in
    if x < m.least then invalid_arg m.bad;
    if x > max_cell then
      invalid_arg (Printf.sprintf "Table.make: %s > %d" m.what max_cell);
    flat.((v * k) + t) <- x
  done

let flatten m ~k rows =
  let flat = Array.make (Array.length rows * k) 0 in
  for v = 0 to Array.length rows - 1 do
    copy_row m ~k flat v rows.(v) 0 (Array.length rows.(v))
  done;
  flat

let flatten_cells m ~k (cells, ends) =
  let flat = Array.make (Array.length ends * k) 0 and start = ref 0 in
  for v = 0 to Array.length ends - 1 do
    copy_row m ~k flat v cells !start (ends.(v) - !start);
    start := ends.(v)
  done;
  flat

let row_counts (time : int) cost =
  if cost <> time then invalid_arg "Table.make: time/cost row counts differ"

(* [let]s, not arguments: arguments are evaluated right to left, and a
   time fault must be reported before a cost fault. *)
let make ~library ~time ~cost =
  let k = Library.num_types library in
  row_counts (Array.length time) (Array.length cost);
  let times = flatten time_cells ~k time in
  let costs = flatten cost_cells ~k cost in
  of_flat library ~k times costs

let of_rows ~library ~time ~cost =
  let k = Library.num_types library in
  row_counts (Array.length (snd time)) (Array.length (snd cost));
  let times = flatten_cells time_cells ~k time in
  let costs = flatten_cells cost_cells ~k cost in
  of_flat library ~k times costs

let library t = t.library
let num_nodes t = Array.length t.min_times
let num_types t = t.k

(* The explicit check keeps a type past [k - 1] from reading the next
   node's row; the message is the one a nested-array read gave. *)
let check t ~node ~ftype =
  if node < 0 || node >= num_nodes t || ftype < 0 || ftype >= t.k then
    invalid_arg "index out of bounds"

let time t ~node ~ftype =
  check t ~node ~ftype;
  Array.unsafe_get t.times ((node * t.k) + ftype)

let cost t ~node ~ftype =
  check t ~node ~ftype;
  Array.unsafe_get t.costs ((node * t.k) + ftype)

let preheat (_ : t) = ()
let flat_times t = t.times
let flat_costs t = t.costs
let min_times_arr t = t.min_times
let min_costs_arr t = t.min_costs
let min_time_type t v = t.min_time_types.(v)
let min_time t v = t.min_times.(v)
let min_cost_type t v = t.min_cost_types.(v)
let min_cost t v = t.min_costs.(v)

let mem_capacities t = Library.mem_capacities t.library
let mem_bounded t = Library.mem_bounded t.library

let with_mem_capacity t caps =
  { t with library = Library.with_mem_capacity t.library caps }

let pp ~names ppf t =
  let k = num_types t in
  Format.fprintf ppf "@[<v>%-8s" "Nodes";
  for j = 0 to k - 1 do
    Format.fprintf ppf "  %4s T/C" (Library.type_name t.library j)
  done;
  for v = 0 to num_nodes t - 1 do
    Format.fprintf ppf "@,%-8s" names.(v);
    for j = 0 to k - 1 do
      Format.fprintf ppf "  %4d/%-3d" (time t ~node:v ~ftype:j)
        (cost t ~node:v ~ftype:j)
    done
  done;
  Format.fprintf ppf "@]"
