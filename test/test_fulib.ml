open Helpers

let sample () =
  table lib3
    [
      ([ 1; 2; 4 ], [ 9; 5; 2 ]);
      ([ 2; 2; 3 ], [ 7; 7; 1 ]);
      ([ 3; 1; 5 ], [ 4; 6; 3 ]);
    ]

let test_library_basics () =
  Alcotest.(check int) "3 types" 3 (Fulib.Library.num_types lib3);
  Alcotest.(check string) "P1" "P1" (Fulib.Library.type_name lib3 0);
  Alcotest.check_raises "empty library" (Invalid_argument "Library.make: no FU types")
    (fun () -> ignore (Fulib.Library.make [||]))

let test_accessors () =
  let t = sample () in
  Alcotest.(check int) "nodes" 3 (Fulib.Table.num_nodes t);
  Alcotest.(check int) "types" 3 (Fulib.Table.num_types t);
  Alcotest.(check int) "time" 4 (Fulib.Table.time t ~node:0 ~ftype:2);
  Alcotest.(check int) "cost" 7 (Fulib.Table.cost t ~node:1 ~ftype:0)

(* The rows are stored flat, node-major: an unchecked [v * k + f] with
   [f = k] would read node [v + 1]'s first cell instead of failing. *)
let test_accessor_bounds () =
  let t = sample () in
  let oob what f =
    Alcotest.check_raises what (Invalid_argument "index out of bounds")
      (fun () -> ignore (f ()))
  in
  oob "time, type = k" (fun () -> Fulib.Table.time t ~node:0 ~ftype:3);
  oob "cost, type = k" (fun () -> Fulib.Table.cost t ~node:1 ~ftype:3);
  oob "time, node = n" (fun () -> Fulib.Table.time t ~node:3 ~ftype:0);
  oob "cost, node = n" (fun () -> Fulib.Table.cost t ~node:3 ~ftype:0);
  oob "time, type < 0" (fun () -> Fulib.Table.time t ~node:1 ~ftype:(-1));
  oob "cost, node < 0" (fun () -> Fulib.Table.cost t ~node:(-1) ~ftype:2);
  oob "project, origin = n" (fun () -> Oracle.Tables.project t ~origin:[| 0; 3 |]);
  Alcotest.(check int) "last cell still reads" 3
    (Fulib.Table.cost t ~node:2 ~ftype:2)

let test_min_time_and_cost () =
  let t = sample () in
  Alcotest.(check int) "min time of v2" 1 (Fulib.Table.min_time t 2);
  Alcotest.(check int) "its type" 1 (Fulib.Table.min_time_type t 2);
  Alcotest.(check int) "min cost of v0" 2 (Fulib.Table.min_cost t 0);
  Alcotest.(check int) "its type" 2 (Fulib.Table.min_cost_type t 0);
  (* tie on time for v1 (2,2,3): lower index wins *)
  Alcotest.(check int) "time tie -> lower index" 0 (Fulib.Table.min_time_type t 1)

let test_validation () =
  Alcotest.check_raises "time < 1" (Invalid_argument "Table.make: time < 1")
    (fun () -> ignore (table lib2 [ ([ 1; 0 ], [ 1; 1 ]) ]));
  Alcotest.check_raises "negative cost"
    (Invalid_argument "Table.make: negative cost") (fun () ->
      ignore (table lib2 [ ([ 1; 1 ], [ 1; -2 ]) ]));
  Alcotest.check_raises "row width" (Invalid_argument "Table.make: time row has wrong width")
    (fun () -> ignore (table lib2 [ ([ 1 ], [ 1; 1 ]) ]));
  let m = Fulib.Table.max_cell in
  Alcotest.(check int) "bound is 2^32" 4294967296 m;
  let t = table lib2 [ ([ 1; m ], [ m; 0 ]) ] in
  Alcotest.(check (pair int int)) "cells at the bound accepted" (m, m)
    (Fulib.Table.time t ~node:0 ~ftype:1, Fulib.Table.cost t ~node:0 ~ftype:0);
  Alcotest.check_raises "time above the bound"
    (Invalid_argument "Table.make: time > 4294967296") (fun () ->
      ignore (table lib2 [ ([ 1; m + 1 ], [ 1; 1 ]) ]));
  Alcotest.check_raises "cost above the bound"
    (Invalid_argument "Table.make: cost > 4294967296") (fun () ->
      ignore (table lib2 [ ([ 1; 1 ], [ m + 1; 1 ]) ]));
  Alcotest.check_raises "a time fault before a cost fault"
    (Invalid_argument "Table.make: time < 1") (fun () ->
      ignore (table lib2 [ ([ 1; 1 ], [ 1; -2 ]); ([ 1; 0 ], [ 1; 1 ]) ]));
  (* [of_rows] takes each matrix as its cells and row ends, and must give
     [make]'s answer: the same table or the same first fault. *)
  let outcome build =
    match build () with
    | t ->
        let n = Fulib.Table.num_nodes t in
        Printf.sprintf "%d rows: %s %s" n
          (String.concat "," (Array.to_list (Array.map string_of_int (Fulib.Table.flat_times t))))
          (String.concat "," (Array.to_list (Array.map string_of_int (Fulib.Table.flat_costs t))))
    | exception Invalid_argument msg -> msg
  in
  let flat rows =
    let ends = Array.make (Array.length rows) 0 in
    Array.iteri
      (fun v row -> ends.(v) <- Array.length row + if v = 0 then 0 else ends.(v - 1))
      rows;
    (Array.concat (Array.to_list rows), ends)
  in
  List.iter
    (fun (time, cost) ->
      let time = Array.of_list (List.map Array.of_list time)
      and cost = Array.of_list (List.map Array.of_list cost) in
      Alcotest.(check string) "of_rows = make"
        (outcome (fun () -> Fulib.Table.make ~library:lib2 ~time ~cost))
        (outcome (fun () ->
             Fulib.Table.of_rows ~library:lib2 ~time:(flat time) ~cost:(flat cost))))
    [
      ([ [ 1; 2 ]; [ 3; 4 ] ], [ [ 5; 6 ]; [ 7; 8 ] ]);
      ([ [ 1; 0 ] ], [ [ 1; 1 ] ]);
      ([ [ 1; 1 ] ], [ [ 1; -2 ] ]);
      ([ [ 1 ] ], [ [ 1; 1 ] ]);
      ([ [ 1; 1 ]; [ 1; 1; 1 ] ], [ [ 1; 1 ]; [ 1; 1 ] ]);
      ([ [ 1; m + 1 ] ], [ [ 1; 1 ] ]);
      ([ [ 1; 1 ] ], [ [ m + 1; 1 ] ]);
      ([ [ 1; 1 ]; [ 1; 0 ] ], [ [ 1; -2 ]; [ 1; 1 ] ]);
      ([ [ 1; 1 ]; [ 2; 2 ] ], [ [ 1; 1 ] ]);
      ([], []);
    ]

let test_make_copies_input () =
  let time = [| [| 1; 2 |] |] and cost = [| [| 3; 4 |] |] in
  let t = Fulib.Table.make ~library:lib2 ~time ~cost in
  time.(0).(0) <- 99;
  Alcotest.(check int) "table unaffected by later mutation" 1
    (Fulib.Table.time t ~node:0 ~ftype:0)

let test_project () =
  let t = sample () in
  let p = Oracle.Tables.project t ~origin:[| 2; 0; 0 |] in
  Alcotest.(check int) "3 projected nodes" 3 (Fulib.Table.num_nodes p);
  Alcotest.(check int) "row of v2" 3 (Fulib.Table.time p ~node:0 ~ftype:0);
  Alcotest.(check int) "row of v0 twice" 9 (Fulib.Table.cost p ~node:1 ~ftype:0);
  Alcotest.(check int) "row of v0 twice" 9 (Fulib.Table.cost p ~node:2 ~ftype:0)

let test_pp_smoke () =
  let t = sample () in
  let s =
    Format.asprintf "%a" (Fulib.Table.pp ~names:[| "a"; "b"; "c" |]) t
  in
  Alcotest.(check bool) "mentions a node" true
    (String.length s > 0 && String.index_opt s 'a' <> None)

let () =
  Alcotest.run "fulib"
    [
      ( "table",
        [
          quick "library basics" test_library_basics;
          quick "accessors" test_accessors;
          quick "accessor bounds" test_accessor_bounds;
          quick "min time/cost" test_min_time_and_cost;
          quick "validation" test_validation;
          quick "defensive copies" test_make_copies_input;
          quick "project" test_project;
          quick "pp" test_pp_smoke;
        ] );
    ]
