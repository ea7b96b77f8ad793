(* Shared builders and oracles for the test suites. *)

let lib2 = Fulib.Library.make [| "A"; "B" |]
let lib3 = Fulib.Library.standard3

(* Build a graph from an edge list over [n] unnamed nodes. *)
let graph ?ops n edges =
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  Dfg.Graph.of_edges ~names ?ops
    (List.map (fun (src, dst) -> { Dfg.Graph.src; dst; delay = 0; size = 0 }) edges)

let graph_with_delays ?ops n edges =
  let names = Array.init n (fun i -> Printf.sprintf "v%d" i) in
  Dfg.Graph.of_edges ~names ?ops
    (List.map (fun (src, dst, delay) -> { Dfg.Graph.src; dst; delay; size = 0 }) edges)

let path_graph n = graph n (List.init (n - 1) (fun i -> (i, i + 1)))

(* a diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
let diamond () = graph 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

(* Table over [lib] from per-node (times, costs) rows. *)
let table lib rows =
  let time = Array.of_list (List.map (fun (t, _) -> Array.of_list t) rows) in
  let cost = Array.of_list (List.map (fun (_, c) -> Array.of_list c) rows) in
  Fulib.Table.make ~library:lib ~time ~cost

(* Exhaustive optimal assignment for tiny instances: the oracle the DPs and
   branch-and-bound are checked against. *)
let brute_force g tbl ~deadline =
  let n = Dfg.Graph.num_nodes g in
  let k = Fulib.Table.num_types tbl in
  let a = Array.make n 0 in
  let best = ref None in
  let consider () =
    if Assign.Assignment.is_feasible g tbl a ~deadline then begin
      let c = Assign.Assignment.total_cost tbl a in
      match !best with
      | Some (_, c') when c' <= c -> ()
      | _ -> best := Some (Array.copy a, c)
    end
  in
  let rec enumerate i =
    if i = n then consider ()
    else
      for t = 0 to k - 1 do
        a.(i) <- t;
        enumerate (i + 1)
      done
  in
  enumerate 0;
  !best

let check_feasible g tbl ~deadline = function
  | None -> ()
  | Some a ->
      Alcotest.(check bool)
        "assignment within deadline" true
        (Assign.Assignment.is_feasible g tbl a ~deadline)

(* Compare an algorithm's achieved cost against the brute-force optimum:
   [exact] demands equality, otherwise only feasibility + not-better-than-
   optimal (sanity) is required. *)
let against_oracle ?(exact = false) name g tbl ~deadline result =
  let oracle = brute_force g tbl ~deadline in
  match (result, oracle) with
  | None, None -> ()
  | None, Some _ ->
      Alcotest.failf "%s: reported infeasible but oracle found a solution" name
  | Some _, None -> Alcotest.failf "%s: returned a solution on infeasible instance" name
  | Some a, Some (_, opt) ->
      check_feasible g tbl ~deadline (Some a);
      let c = Assign.Assignment.total_cost tbl a in
      if c < opt then Alcotest.failf "%s: cost %d beats the oracle %d" name c opt;
      if exact && c > opt then
        Alcotest.failf "%s: cost %d is not optimal (oracle %d)" name c opt

let quick name f = Alcotest.test_case name `Quick f

(* [var] set to [value] for the duration of [f]; Unix has no unsetenv, so
   an unset variable is restored as the empty string. *)
let with_env var value f =
  let saved = Option.value (Sys.getenv_opt var) ~default:"" in
  Unix.putenv var value;
  Fun.protect ~finally:(fun () -> Unix.putenv var saved) f

(* The parent array of a forest graph, as [Assign.Tree_kernel] takes it. *)
let forest_parent g = Assign.Tree_kernel.parents (Dfg.Graph.csr_preds g)

(* A JSON document the test knows to be well formed. *)
let json s = Result.get_ok (Obs.Json.parse s)

(* Is the static schedule [s] legal when repeated every [period] steps?
   The cyclic oracle's verdict. *)
let legal_period g tbl s ~period =
  Check.Violation.ok (Oracle.Cyclic.check g tbl s ~period)

(* A solve line through the served line decoder. *)
let solve_line ?lookup ~line s =
  match Serve.Jsonl.line_of_string ?lookup ~line s with
  | Ok (Serve.Jsonl.Solve item) -> Ok item
  | Ok (Serve.Jsonl.Admit _ | Serve.Jsonl.Release _) -> Error "not a solve line"
  | Error e -> Error e
