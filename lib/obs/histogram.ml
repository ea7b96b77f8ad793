(* Fixed log-scale latency histograms.

   Bucket 0 holds values below 1 ns; bucket i (i >= 1) holds values in
   [2^(i-1), 2^i) ns. 64 buckets cover everything up to ~2.9 centuries,
   so there is no overflow bucket to special-case: the last bucket's
   range is unreachable in practice and simply absorbs any outlier.

   Every bucket is an independent atomic cell, so [observe] from
   concurrent domains is one float comparison, one log2, and one
   fetch-and-add — no lock, no allocation. Quantiles are computed from a
   snapshot of the cells; between [buckets] and [quantile_of_buckets] a
   caller can also diff two snapshots to get the quantiles of just the
   observations in between. *)

let num_buckets = 64

type t = {
  cells : int Atomic.t array;
  sum_ns : int Atomic.t;
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let m = Mutex.create ()

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let make name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
          let h =
            {
              cells = Array.init num_buckets (fun _ -> Atomic.make 0);
              sum_ns = Atomic.make 0;
            }
          in
          Hashtbl.replace registry name h;
          h)

let bucket_of_ns v =
  if v < 1.0 then 0
  else min (num_buckets - 1) (1 + int_of_float (Float.log2 v))

(* Upper bound (exclusive) of bucket [i]: 1 ns for bucket 0, 2^i after. *)
let bucket_upper i = if i <= 0 then 1.0 else Float.pow 2.0 (float_of_int i)

(* Representative value reported for a bucket: the geometric midpoint of
   its bounds, which halves the worst-case log-scale error. *)
let bucket_mid i =
  if i <= 0 then 0.5
  else sqrt (Float.pow 2.0 (float_of_int (i - 1)) *. bucket_upper i)

let observe h v =
  ignore (Atomic.fetch_and_add h.cells.(bucket_of_ns v) 1);
  ignore
    (Atomic.fetch_and_add h.sum_ns
       (if Float.is_finite v && v > 0.0 then int_of_float v else 0))

let buckets h = Array.map Atomic.get h.cells
let count h = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.cells
let sum h = float_of_int (Atomic.get h.sum_ns)

let mean h =
  let n = count h in
  if n = 0 then 0.0 else sum h /. float_of_int n

(* [q] is validated before the emptiness check so a bad quantile raises
   even on an empty histogram — silence must never hide a caller bug. *)
let quantile_of_buckets cells q =
  (* negated >= form so nan fails the test too *)
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Obs.Histogram.quantile_of_buckets: q outside [0, 1]";
  let total = Array.fold_left ( + ) 0 cells in
  (* Empty sentinel: 0.0. No non-empty histogram can report it — the
     smallest representative value is bucket 0's midpoint, 0.5 ns — so
     [quantile h q = 0.0] is a definitive "no observations" test. *)
  if total = 0 then 0.0
  else begin
    (* the observation with 1-based rank ceil(q * total); q = 0 clamps
       to rank 1 (the minimum), q = 1 is rank [total] (the maximum) *)
    let rank = max 1 (int_of_float (ceil (q *. float_of_int total))) in
    let rec walk i seen =
      (* unreachable while rank <= total; kept so a torn concurrent
         snapshot degrades to the top bucket instead of an exception *)
      if i >= Array.length cells then bucket_mid (Array.length cells - 1)
      else
        let seen = seen + cells.(i) in
        if seen >= rank then bucket_mid i else walk (i + 1) seen
    in
    walk 0 0
  end

let quantile h q = quantile_of_buckets (buckets h) q

let merge_into ~src ~dst =
  Array.iteri
    (fun i c ->
      let n = Atomic.get c in
      if n > 0 then ignore (Atomic.fetch_and_add dst.cells.(i) n))
    src.cells;
  let s = Atomic.get src.sum_ns in
  if s <> 0 then ignore (Atomic.fetch_and_add dst.sum_ns s)

let reset h =
  Array.iter (fun c -> Atomic.set c 0) h.cells;
  Atomic.set h.sum_ns 0

let value_of name = locked (fun () -> Hashtbl.find_opt registry name)

let snapshot () =
  let rows =
    locked (fun () ->
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
