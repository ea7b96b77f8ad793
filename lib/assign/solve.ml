type algorithm =
  | Greedy
  | Greedy_iterative
  | Tree
  | Once
  | Repeat
  | Repeat_search
  | Repeat_refined
  | Beam
  | Exact

let name = function
  | Greedy -> "Greedy"
  | Greedy_iterative -> "Greedy_Iter"
  | Tree -> "Tree_Assign"
  | Once -> "DFG_Assign_Once"
  | Repeat -> "DFG_Assign_Repeat"
  | Repeat_search -> "Repeat_Search"
  | Repeat_refined -> "Repeat_Refined"
  | Beam -> "Beam"
  | Exact -> "Exact"

let all =
  [
    Greedy; Greedy_iterative; Tree; Once; Repeat; Repeat_search;
    Repeat_refined; Beam; Exact;
  ]

(* Bare constructor spellings accepted on the wire and the CLI in addition
   to the display names. *)
let short_name = function
  | Greedy -> "greedy"
  | Greedy_iterative -> "greedy_iterative"
  | Tree -> "tree"
  | Once -> "once"
  | Repeat -> "repeat"
  | Repeat_search -> "repeat_search"
  | Repeat_refined -> "repeat_refined"
  | Beam -> "beam"
  | Exact -> "exact"

let of_name s =
  let s = String.lowercase_ascii (String.trim s) in
  List.find_opt
    (fun a -> s = String.lowercase_ascii (name a) || s = short_name a)
    all

let catalogue () =
  String.concat ", "
    (List.map (fun a -> Printf.sprintf "%s (%s)" (short_name a) (name a)) all)

let of_name_result s =
  match of_name s with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown algorithm %S; valid algorithms: %s" s
           (catalogue ()))

(* [Tree_Assign] runs on the graph or its transpose ([Tree_assign.solve_auto]),
   so one of the two must be a forest. Every other algorithm takes any DAG. *)
let applicable algorithm g =
  match algorithm with
  | Tree ->
      if Dfg.Graph.is_tree g || Dfg.Graph.is_in_tree g then Ok ()
      else
        Error
          (Printf.sprintf
             "algorithm %s (%s) needs a forest: some node has two zero-delay \
              predecessors and some node has two zero-delay successors"
             (short_name algorithm) (name algorithm))
  | _ -> Ok ()

let dispatch ?budget algorithm g table ~deadline =
  match algorithm with
  | Greedy -> Greedy.solve g table ~deadline
  | Greedy_iterative -> Greedy.solve_iterative g table ~deadline
  | Tree -> Option.map fst (Tree_assign.solve_auto g table ~deadline)
  | Once -> Dfg_assign.once g table ~deadline
  | Repeat -> Dfg_assign.repeat g table ~deadline
  | Repeat_search -> Dfg_assign.repeat_search g table ~deadline
  | Repeat_refined -> Local_search.repeat_plus g table ~deadline ~seed:1
  | Beam -> Option.map fst (Beam.solve g table ~deadline)
  | Exact -> Option.map fst (Exact.solve ?budget g table ~deadline)

type verdict =
  | Feasible of Assignment.t
  | Infeasible
  | Infeasible_memory

(* Central memory verdict: any returned assignment is post-checked against
   the aggregate per-type loads (so a solver that was not taught the memory
   model still can't emit an over-capacity result), and a failure is
   labelled [Infeasible_memory] exactly when dropping the memory constraint
   alone would leave the instance feasible — i.e. the deadline is met by
   the all-fastest relaxation but memory is bounded and in the way. *)
let run ?budget algorithm g table ~deadline =
  let constrained = Assignment.mem_constrained g table in
  match dispatch ?budget algorithm g table ~deadline with
  | Some a ->
      if constrained && not (Assignment.mem_feasible g table a) then
        Infeasible_memory
      else Feasible a
  | None ->
      if
        constrained && deadline >= 0
        && Assignment.min_makespan g table <= deadline
      then Infeasible_memory
      else Infeasible
