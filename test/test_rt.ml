(* lib/rt: admission control unit tests plus the differential soundness
   property — every admitted set must replay deadline-miss-free over a
   hyperperiod (Rt.Sim, built on Sched.Cyclic_schedule.simulate), every
   rejection must carry a witness that re-checks arithmetically, and the
   verdict sequence must not depend on the solver's domain count. *)

let check = Alcotest.(check bool)

(* --- capacity specs ----------------------------------------------------- *)

let test_spec_parse () =
  (match Rt.Admission.spec_of_string "4" with
  | Ok (Rt.Admission.Uniform 4) -> ()
  | _ -> Alcotest.fail "\"4\" should parse to Uniform 4");
  (match Rt.Admission.spec_of_string "2-1-3" with
  | Ok (Rt.Admission.Per_type [| 2; 1; 3 |]) -> ()
  | _ -> Alcotest.fail "\"2-1-3\" should parse per-type");
  (match Rt.Admission.spec_of_string "2,1" with
  | Ok (Rt.Admission.Per_type [| 2; 1 |]) -> ()
  | _ -> Alcotest.fail "\"2,1\" should parse per-type");
  List.iter
    (fun s ->
      match Rt.Admission.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ ""; "abc"; "1-x"; "-3" ];
  (* round-trip through the printer *)
  List.iter
    (fun spec ->
      match Rt.Admission.spec_of_string (Rt.Admission.spec_to_string spec) with
      | Ok spec' -> check "spec round-trip" true (spec = spec')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ Rt.Admission.Uniform 7; Rt.Admission.Per_type [| 1; 4; 2 |] ]

(* The library reads no environment: [hetsched]'s [--rt-capacity] binds
   [HETSCHED_RT_CAPACITY], and an in-process controller keeps the
   constant default whatever the variable says. *)
let test_spec_env () =
  Helpers.with_env "HETSCHED_RT_CAPACITY" "3-1" @@ fun () ->
  check "default capacity despite the variable" true
    (Rt.Admission.capacity (Rt.Admission.create ())
    = Rt.Admission.Uniform Rt.Admission.default_uniform_capacity)

(* --- witnesses ---------------------------------------------------------- *)

let test_witnesses () =
  let holds = Rt.Verdict.witness_holds in
  check "period overrun holds" true
    (holds (Rt.Verdict.Period_overrun { min_period = 10; period = 8 }));
  check "period non-overrun refuted" false
    (holds (Rt.Verdict.Period_overrun { min_period = 8; period = 8 }));
  check "capacity shortfall holds" true
    (holds (Rt.Verdict.Insufficient_capacity { ftype = 1; need = 3; have = 2 }));
  check "capacity fit refuted" false
    (holds (Rt.Verdict.Insufficient_capacity { ftype = 0; need = 2; have = 2 }));
  check "utilization overrun holds" true
    (holds (Rt.Verdict.Utilization_overrun { utilization = 1.25; bound = 1.0 }));
  check "utilization within bound refuted" false
    (holds (Rt.Verdict.Utilization_overrun { utilization = 0.9; bound = 1.0 }));
  check "response overrun holds" true
    (holds (Rt.Verdict.Response_overrun { id = "x"; response = 20; deadline = 15 }));
  check "response within deadline refuted" false
    (holds (Rt.Verdict.Response_overrun { id = "x"; response = 15; deadline = 15 }));
  List.iter
    (fun r -> check "structural reasons hold vacuously" true (holds r))
    [
      Rt.Verdict.Infeasible_deadline;
      Rt.Verdict.Synthesis_error "boom";
      Rt.Verdict.Width_mismatch { expected = 2; got = 3 };
      Rt.Verdict.Duplicate_id "a";
    ]

let test_reason_codes () =
  (* wire codes are a protocol: lock them down *)
  List.iter
    (fun (r, code) -> Alcotest.(check string) code code (Rt.Verdict.reason_code r))
    [
      (Rt.Verdict.Infeasible_deadline, "infeasible_deadline");
      (Rt.Verdict.Synthesis_error "x", "synthesis_error");
      (Rt.Verdict.Period_overrun { min_period = 2; period = 1 }, "period_overrun");
      (Rt.Verdict.Width_mismatch { expected = 2; got = 3 }, "width_mismatch");
      (Rt.Verdict.Duplicate_id "a", "duplicate_id");
      ( Rt.Verdict.Insufficient_capacity { ftype = 0; need = 2; have = 1 },
        "insufficient_capacity" );
      ( Rt.Verdict.Utilization_overrun { utilization = 1.5; bound = 1.0 },
        "utilization_overrun" );
      ( Rt.Verdict.Response_overrun { id = "a"; response = 9; deadline = 8 },
        "response_overrun" );
    ]

(* --- response-time iteration -------------------------------------------- *)

let test_response_time () =
  check "empty set schedulable" true
    (Rt.Response_time.analyse [] = Rt.Response_time.Schedulable []);
  (* single task: no interference, no blocking *)
  (match
     Rt.Response_time.analyse
       [ { Rt.Response_time.id = "a"; cost = 3; period = 10; deadline = 10 } ]
   with
  | Rt.Response_time.Schedulable [ ("a", 3) ] -> ()
  | _ -> Alcotest.fail "single light: response = cost");
  (* two tasks: the high-priority one blocks on the low one's whole job,
     the low one absorbs one preemption-free high job per period *)
  (match
     Rt.Response_time.analyse
       [
         { Rt.Response_time.id = "hi"; cost = 2; period = 5; deadline = 5 };
         { Rt.Response_time.id = "lo"; cost = 3; period = 10; deadline = 10 };
       ]
   with
  | Rt.Response_time.Schedulable l ->
      check "hi: cost + blocking" true (List.assoc "hi" l = 5);
      check "lo: cost + one hi job" true (List.assoc "lo" l = 5)
  | _ -> Alcotest.fail "hi/lo pair is schedulable");
  (* same pair with a tight high-priority deadline: blocking kills it *)
  (match
     Rt.Response_time.analyse
       [
         { Rt.Response_time.id = "hi"; cost = 2; period = 5; deadline = 4 };
         { Rt.Response_time.id = "lo"; cost = 3; period = 10; deadline = 10 };
       ]
   with
  | Rt.Response_time.Response_overrun { id = "hi"; response; deadline = 4 } ->
      check "overrun witness crosses the deadline" true (response > 4)
  | _ -> Alcotest.fail "blocking must push hi over deadline 4");
  (* utilization gate fires before any fixpoint *)
  (match
     Rt.Response_time.analyse
       [
         { Rt.Response_time.id = "a"; cost = 3; period = 5; deadline = 5 };
         { Rt.Response_time.id = "b"; cost = 3; period = 5; deadline = 5 };
       ]
   with
  | Rt.Response_time.Utilization_overrun u ->
      check "witness exceeds the bound" true
        (u > Rt.Response_time.utilization_bound)
  | _ -> Alcotest.fail "1.2 utilization must overrun");
  check "unconstrained deadline rejected" true
    (try
       ignore
         (Rt.Response_time.analyse
            [ { Rt.Response_time.id = "a"; cost = 1; period = 4; deadline = 5 } ]);
       false
     with Invalid_argument _ -> true)

(* --- task construction and analysis ------------------------------------- *)

(* serial 3-node chain over lib2: fast type 2 steps/node, slow type 4 *)
let chain_task ~period ~deadline =
  let g = Helpers.path_graph 3 in
  let tbl =
    Helpers.table Helpers.lib2
      [ ([ 2; 4 ], [ 4; 1 ]); ([ 2; 4 ], [ 4; 1 ]); ([ 2; 4 ], [ 4; 1 ]) ]
  in
  Rt.Task.make ~period ~deadline g tbl

(* one node; at a loose deadline Min_resource picks the cheap slow unit,
   so the job costs 9 steps — a light task with utilization 9/period *)
let blip_task ~period ~deadline =
  let g = Helpers.graph 1 [] in
  let tbl = Helpers.table Helpers.lib2 [ ([ 7; 9 ], [ 2; 1 ]) ] in
  Rt.Task.make ~period ~deadline g tbl

(* one node, 3 steps on the cheap unit — a small filler light task *)
let tiny_task ~period ~deadline =
  let g = Helpers.graph 1 [] in
  let tbl = Helpers.table Helpers.lib2 [ ([ 2; 3 ], [ 2; 1 ]) ] in
  Rt.Task.make ~period ~deadline g tbl

(* A task's analysis on the path admit lines take: a periodic synthesis
   request with the Repeat assignment, solved, then classified. *)
let analyse_task ?heavy_threshold (task : Rt.Task.t) =
  Core.Synthesis.analyse_periodic ?heavy_threshold
    (Core.Synthesis.periodic ~algorithm:Core.Synthesis.Repeat
       ~period:task.period ~deadline:task.deadline task.graph task.table)

let analysed_exn task =
  match analyse_task task with
  | Ok a -> a
  | Error r -> Alcotest.failf "analyse failed: %s" (Rt.Verdict.reason_detail r)

let test_task_validation () =
  check "period < 1 rejected" true
    (try
       ignore (chain_task ~period:0 ~deadline:8);
       false
     with Invalid_argument _ -> true);
  check "deadline < 1 rejected" true
    (try
       ignore (chain_task ~period:8 ~deadline:0);
       false
     with Invalid_argument _ -> true);
  check "node-count mismatch rejected" true
    (try
       let g = Helpers.path_graph 3 in
       let tbl = Helpers.table Helpers.lib2 [ ([ 1; 1 ], [ 1; 1 ]) ] in
       ignore (Rt.Task.make ~period:8 ~deadline:8 g tbl);
       false
     with Invalid_argument _ -> true)

let test_task_analyse () =
  (* comfortable: light, schedulable, utilization below threshold *)
  let a = analysed_exn (chain_task ~period:16 ~deadline:12) in
  check "chain at period 16 is light" false a.Rt.Task.heavy;
  check "utilization below threshold" true
    (a.Rt.Task.utilization < Rt.Task.default_heavy_threshold);
  check "makespan within deadline" true (a.Rt.Task.makespan <= 12);
  check "min_period within period" true (a.Rt.Task.min_period <= 16);
  (* a serial chain cannot repeat faster than its busiest FU type drains:
     3 nodes over 2 types means some type carries >= 3 steps of work per
     iteration on one instance, so period 2 is below any min_period *)
  (match analyse_task (chain_task ~period:2 ~deadline:8) with
  | Error (Rt.Verdict.Period_overrun { min_period; period = 2 }) ->
      check "period-overrun witness holds" true (min_period > 2)
  | _ -> Alcotest.fail "chain at period 2 must overrun its min period");
  (* deadline below the critical path: infeasible outright *)
  (match analyse_task (chain_task ~period:16 ~deadline:3) with
  | Error Rt.Verdict.Infeasible_deadline -> ()
  | _ -> Alcotest.fail "deadline 3 < critical path must be infeasible");
  (* lowering the threshold flips the same task heavy *)
  let h = analyse_task ~heavy_threshold:0.2 (chain_task ~period:16 ~deadline:12) in
  (match h with
  | Ok a -> check "threshold 0.2 makes it heavy" true a.Rt.Task.heavy
  | Error _ -> Alcotest.fail "threshold change cannot break feasibility")

(* --- admission sequences ------------------------------------------------ *)

let admit_exn adm ~id task =
  match Rt.Admission.try_admit adm ~id (analysed_exn task) with
  | Rt.Verdict.Admitted r -> r
  | Rt.Verdict.Rejected r ->
      Alcotest.failf "%s unexpectedly rejected: %s" id
        (Rt.Verdict.reason_detail r)

let reject_code adm ~id task =
  match Rt.Admission.try_admit adm ~id (analysed_exn task) with
  | Rt.Verdict.Admitted _ -> Alcotest.failf "%s unexpectedly admitted" id
  | Rt.Verdict.Rejected r ->
      check "rejection witness holds" true (Rt.Verdict.witness_holds r);
      Rt.Verdict.reason_code r

let test_admission_lifecycle () =
  let adm = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 2) () in
  let r = admit_exn adm ~id:"a" (chain_task ~period:16 ~deadline:12) in
  check "chain admitted light" false r.Rt.Verdict.heavy;
  check "duplicate id rejected" true
    (reject_code adm ~id:"a" (chain_task ~period:16 ~deadline:12)
    = "duplicate_id");
  (* a 3-type task on a platform whose width is now fixed at 2 *)
  let wide =
    let g = Helpers.graph 1 [] in
    let tbl =
      Fulib.Table.make ~library:Helpers.lib3 ~time:[| [| 1; 2; 3 |] |]
        ~cost:[| [| 3; 2; 1 |] |]
    in
    Rt.Task.make ~period:8 ~deadline:8 g tbl
  in
  check "width mismatch rejected" true
    (reject_code adm ~id:"w" wide = "width_mismatch");
  check "release unknown id" false (Rt.Admission.release adm ~id:"zzz");
  check "release admitted id" true (Rt.Admission.release adm ~id:"a");
  check "released controller is empty" true (Rt.Admission.admitted adm = []);
  ignore (admit_exn adm ~id:"a" (chain_task ~period:16 ~deadline:12));
  check "re-admission after release" true
    (match Rt.Admission.find adm ~id:"a" with Some _ -> None = None | None -> false);
  check "one-light set simulates clean" true (Rt.Sim.ok (Rt.Sim.run adm))

let test_admission_heavy_capacity () =
  (* threshold 0.5 turns the chain heavy; on a width-1 platform the second
     copy cannot find a free fast unit *)
  let adm = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 1) () in
  let analyse task =
    match analyse_task ~heavy_threshold:0.5 task with
    | Ok a -> a
    | Error r -> Alcotest.failf "analyse: %s" (Rt.Verdict.reason_detail r)
  in
  let a1 = analyse (chain_task ~period:8 ~deadline:8) in
  check "chain at period 8 heavy under 0.5" true a1.Rt.Task.heavy;
  (match Rt.Admission.try_admit adm ~id:"h1" a1 with
  | Rt.Verdict.Admitted r ->
      check "heavy reservation flagged" true r.Rt.Verdict.heavy;
      check "heavy response = makespan" true
        (r.Rt.Verdict.response_time = a1.Rt.Task.makespan)
  | Rt.Verdict.Rejected r ->
      Alcotest.failf "h1 rejected: %s" (Rt.Verdict.reason_detail r));
  (* residual shrank by the reservation *)
  (match Rt.Admission.residual adm with
  | Some res ->
      check "residual dominated by capacity" true
        (Array.for_all (fun c -> c <= 1) res);
      check "some type exhausted" true (Array.exists (fun c -> c = 0) res)
  | None -> Alcotest.fail "residual known after first admission");
  (match Rt.Admission.try_admit adm ~id:"h2" (analyse (chain_task ~period:8 ~deadline:8)) with
  | Rt.Verdict.Rejected (Rt.Verdict.Insufficient_capacity _ as r) ->
      check "capacity witness holds" true (Rt.Verdict.witness_holds r)
  | v ->
      Alcotest.failf "h2 should exhaust capacity, got %s"
        (Format.asprintf "%a" Rt.Verdict.pp v));
  check "heavy-only set simulates clean" true (Rt.Sim.ok (Rt.Sim.run adm))

let test_admission_light_interference () =
  let adm = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 2) () in
  ignore (admit_exn adm ~id:"l1" (blip_task ~period:16 ~deadline:16));
  (* a second 9/16 blip pushes the serialized server past 1.0 *)
  check "second blip overruns utilization" true
    (reject_code adm ~id:"l2" (blip_task ~period:16 ~deadline:16)
    = "utilization_overrun");
  check "rejection left state intact" true
    (List.length (Rt.Admission.admitted adm) = 1);
  (* a tight-deadline candidate cannot absorb the blocking of an admitted
     job: the response-time witness names the loser *)
  let adm2 = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 2) () in
  ignore (admit_exn adm2 ~id:"slow" (blip_task ~period:32 ~deadline:32));
  let tight =
    let g = Helpers.graph 1 [] in
    let tbl = Helpers.table Helpers.lib2 [ ([ 2; 9 ], [ 2; 1 ]) ] in
    Rt.Task.make ~period:32 ~deadline:4 g tbl
  in
  check "tight candidate blocked past its deadline" true
    (reject_code adm2 ~id:"tight" tight = "response_overrun");
  check "survivors simulate clean" true (Rt.Sim.ok (Rt.Sim.run adm))

let test_sim_certificate () =
  (* mixed heavy + lights; the certificate must enumerate light jobs over
     the whole hyperperiod *)
  let adm = Rt.Admission.create ~capacity:(Rt.Admission.Uniform 2) () in
  let heavy =
    match analyse_task ~heavy_threshold:0.5 (chain_task ~period:8 ~deadline:8) with
    | Ok a -> a
    | Error r -> Alcotest.failf "analyse: %s" (Rt.Verdict.reason_detail r)
  in
  (match Rt.Admission.try_admit adm ~id:"h" heavy with
  | Rt.Verdict.Admitted _ -> ()
  | Rt.Verdict.Rejected r ->
      Alcotest.failf "heavy rejected: %s" (Rt.Verdict.reason_detail r));
  ignore (admit_exn adm ~id:"l1" (blip_task ~period:16 ~deadline:16));
  ignore (admit_exn adm ~id:"l2" (tiny_task ~period:32 ~deadline:32));
  let cert = Rt.Sim.run adm in
  check "certificate ok" true (Rt.Sim.ok cert);
  check "hyperperiod is the lcm" true (cert.Rt.Sim.hyperperiod = 32);
  (* l1 releases at 0 and 16, l2 at 0: three light jobs *)
  check "every light job replayed" true (List.length cert.Rt.Sim.jobs = 3);
  check "no misses" true (cert.Rt.Sim.misses = []);
  List.iter
    (fun (j : Rt.Sim.job) ->
      check "job finishes after it starts" true (j.finish > j.start);
      check "job starts at or after release" true (j.start >= j.release);
      check "job meets its deadline" true (j.finish <= j.deadline_at))
    cert.Rt.Sim.jobs;
  (* the job guard trips on absurd caps *)
  check "max_jobs guard raises" true
    (try
       ignore (Rt.Sim.run ~max_jobs:1 adm);
       false
     with Invalid_argument _ -> true)

(* --- differential soundness --------------------------------------------- *)

(* One full admission run: analyse + admit every spec in order, asserting
   each rejection's witness; returns the verdict trace and controller. *)
let run_admissions specs ~capacity =
  let adm = Rt.Admission.create ~capacity () in
  let trace =
    List.map
      (fun (s : Workloads.Task_set.spec) ->
        let task =
          Rt.Task.make ~period:s.period ~deadline:s.deadline s.graph s.table
        in
        match analyse_task task with
        | Error r ->
            if not (Rt.Verdict.witness_holds r) then
              QCheck.Test.fail_reportf "analyse witness broken: %s"
                (Rt.Verdict.reason_detail r);
            "!" ^ Rt.Verdict.reason_code r
        | Ok analysed -> (
            match Rt.Admission.try_admit adm ~id:s.name analysed with
            | Rt.Verdict.Admitted _ -> "admitted"
            | Rt.Verdict.Rejected r ->
                if not (Rt.Verdict.witness_holds r) then
                  QCheck.Test.fail_reportf "rejection witness broken: %s"
                    (Rt.Verdict.reason_detail r);
                Rt.Verdict.reason_code r))
      specs
  in
  (trace, adm)

let admitted_sets_simulate_clean =
  QCheck.Test.make ~count:60 ~name:"admitted sets simulate deadline-miss-free"
    (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int))
    (fun seed ->
      let rng = Workloads.Prng.create seed in
      let tasks = 2 + Workloads.Prng.int rng 5 in
      let specs =
        Workloads.Task_set.random rng ~tasks ~min_nodes:3 ~max_nodes:8
      in
      let capacity = Rt.Admission.Uniform (1 + Workloads.Prng.int rng 3) in
      (* the differential core: identical verdicts at 1 and 2 solver
         domains, and both admitted sets pass the hyperperiod replay *)
      Par.Pool.set_global_domains 1;
      let t1, a1 = run_admissions specs ~capacity in
      Par.Pool.set_global_domains 2;
      let t2, a2 = run_admissions specs ~capacity in
      if t1 <> t2 then
        QCheck.Test.fail_reportf "verdicts diverge across domains: [%s] vs [%s]"
          (String.concat ";" t1) (String.concat ";" t2);
      let s1 = Rt.Sim.run a1 and s2 = Rt.Sim.run a2 in
      if not (Rt.Sim.ok s1) then
        QCheck.Test.fail_reportf "1-domain certificate failed:@ %a" Rt.Sim.pp s1;
      if not (Rt.Sim.ok s2) then
        QCheck.Test.fail_reportf "2-domain certificate failed:@ %a" Rt.Sim.pp s2;
      true)

let overload_always_rejects =
  QCheck.Test.make ~count:30 ~name:"overloaded sets reject and stay sound"
    (QCheck.make ~print:string_of_int QCheck.Gen.(map abs int))
    (fun seed ->
      let rng = Workloads.Prng.create seed in
      let specs =
        Workloads.Task_set.overloaded rng ~tasks:5 ~min_nodes:3 ~max_nodes:8
      in
      let trace, adm = run_admissions specs ~capacity:(Rt.Admission.Uniform 1) in
      (* five near-1.0-utilization tasks cannot all fit one instance per
         type: something must be turned away, and what remains must hold *)
      if not (List.exists (fun v -> v <> "admitted") trace) then
        QCheck.Test.fail_reportf "no rejection in [%s]" (String.concat ";" trace);
      Rt.Sim.ok (Rt.Sim.run adm))

let () =
  Alcotest.run "rt"
    [
      ( "verdicts",
        [
          Alcotest.test_case "capacity spec parsing" `Quick test_spec_parse;
          Alcotest.test_case "capacity spec from env" `Quick test_spec_env;
          Alcotest.test_case "witnesses re-check" `Quick test_witnesses;
          Alcotest.test_case "reason codes stable" `Quick test_reason_codes;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "response-time iteration" `Quick test_response_time;
          Alcotest.test_case "task validation" `Quick test_task_validation;
          Alcotest.test_case "task analysis" `Quick test_task_analyse;
        ] );
      ( "admission",
        [
          Alcotest.test_case "lifecycle" `Quick test_admission_lifecycle;
          Alcotest.test_case "heavy capacity" `Quick test_admission_heavy_capacity;
          Alcotest.test_case "light interference" `Quick test_admission_light_interference;
          Alcotest.test_case "hyperperiod certificate" `Quick test_sim_certificate;
        ] );
      ( "differential",
        [
          QCheck_alcotest.to_alcotest admitted_sets_simulate_clean;
          QCheck_alcotest.to_alcotest overload_always_rejects;
        ] );
    ]
