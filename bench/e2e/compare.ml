(* Compares two sets of e2e.exe --json runs against the bounds in
   BENCHMARK.json, one row per (workload, end-to-end metric).

   compare.exe [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Runs are paired in file-name order. Verdicts:
   - better: the change wins at least 9/10 of the pairs (ties count for
     neither) and the medians differ by more than the parent's IQR;
   - worse: the change's median is worse than the parent's by more than
     the metric's bound;
   - unresolved: either side's IQR is wider than the bound;
   - same: none of the above.
   Exits 1 when any row is worse. *)

module J = Obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let parse_file path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok json -> json
  | Error msg -> fail "%s: %s" path msg

let str key json = Option.bind (J.member key json) J.to_string_opt
let num key json = Option.bind (J.member key json) J.to_float_opt
let list key json = Option.value ~default:[] (Option.bind (J.member key json) J.to_list_opt)

type bound = { metric : string; higher : bool; bound : float }

let bounds path =
  List.map
    (fun e ->
      match (str "name" e, str "better" e, num "bound" e) with
      | Some metric, Some better, Some bound ->
          { metric; higher = better = "higher"; bound }
      | _ -> fail "%s: malformed end_to_end entry" path)
    (list "end_to_end" (parse_file path))

(* (workload, metric) -> values, in file-name order *)
let runs dir =
  let files =
    List.sort compare
      (List.filter
         (fun f -> Filename.check_suffix f ".json")
         (Array.to_list (Sys.readdir dir)))
  in
  let table = Hashtbl.create 64 in
  List.iter
    (fun f ->
      List.iter
        (fun record ->
          match (str "workload" record, J.member "metrics" record) with
          | Some w, Some (J.Obj metrics) ->
              List.iter
                (fun (name, v) ->
                  Option.iter
                    (fun x ->
                      let key = (w, name) in
                      Hashtbl.replace table key
                        (x :: Option.value ~default:[] (Hashtbl.find_opt table key)))
                    (num "value" v))
                metrics
          | _ -> ())
        (match parse_file (Filename.concat dir f) with
        | J.List records -> records
        | record -> [ record ]))
    files;
  Hashtbl.filter_map_inplace (fun _ xs -> Some (List.rev xs)) table;
  table

(* Quartiles as Python's statistics.quantiles(xs, n=4) computes them. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let len = Array.length d in
  if len < 2 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let rec zip xs ys =
  match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

let () =
  let bench, a, b =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--benchmark"; bench; a; b ] -> (bench, a, b)
    | [ a; b ] -> ("BENCHMARK.json", a, b)
    | _ -> fail "usage: compare.exe [--benchmark BENCHMARK.json] PARENT_DIR CHANGE_DIR"
  in
  let bounds = bounds bench in
  let parent = runs a and change = runs b in
  let keys =
    List.sort_uniq compare
      (Hashtbl.fold
         (fun ((_, metric) as key) _ acc ->
           if List.exists (fun x -> x.metric = metric) bounds then key :: acc else acc)
         parent [])
  in
  Printf.printf "%-11s %-15s %-32s %-32s %8s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "change" "wins" "verdict";
  let worse = ref false in
  List.iter
    (fun ((w, metric) as key) ->
      let bd = List.find (fun x -> x.metric = metric) bounds in
      match Hashtbl.find_opt change key with
      | None -> Printf.printf "%-11s %-15s missing in %s\n" w metric b
      | Some ys ->
          let xs = Hashtbl.find parent key in
          let xq1, xm, xq3 = quartiles xs and yq1, ym, yq3 = quartiles ys in
          let better u v = if bd.higher then v > u else v < u in
          let pairs = zip xs ys in
          let wins = List.length (List.filter (fun (x, y) -> better x y) pairs) in
          let spread lo mid hi = (hi -. lo) /. Float.abs mid in
          let verdict =
            if
              10 * wins >= 9 * List.length pairs
              && Float.abs (ym -. xm) > xq3 -. xq1
            then "better"
            else if better xm ym || Float.abs (ym -. xm) <= bd.bound *. Float.abs xm
            then
              if spread xq1 xm xq3 > bd.bound || spread yq1 ym yq3 > bd.bound
              then "unresolved"
              else "same"
            else begin
              worse := true;
              "worse"
            end
          in
          Printf.printf "%-11s %-15s %-32s %-32s %+7.1f%% %3d/%-2d  %s\n" w metric
            (Printf.sprintf "%.4g [%.4g, %.4g]" xm xq1 xq3)
            (Printf.sprintf "%.4g [%.4g, %.4g]" ym yq1 yq3)
            (100.0 *. (ym -. xm) /. Float.abs xm)
            wins (List.length pairs) verdict)
    keys;
  if !worse then exit 1
