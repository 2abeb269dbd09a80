(* The discrete-event simulator: Comp algebra, engine determinism and
   conservation laws, per-policy behaviours, machine models, workload
   registry. *)

open Lcws
module C = Sim.Comp
module E = Sim.Engine
module M = Sim.Cost_model
module W = Sim.Workloads

let check = Alcotest.check

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* --- Comp ---------------------------------------------------------------- *)

let test_comp_work () =
  let c = C.Seq [ C.Work 10; C.Fork (C.Work 5, C.Work 7); C.pfor ~grain:2 ~n:10 (fun _ -> 3) ] in
  check Alcotest.int "total work" (10 + 5 + 7 + 30) (C.total_work c);
  check Alcotest.int "span" (10 + 7 + 6) (C.span c);
  check Alcotest.int "leaves" (1 + 2 + 5) (C.num_leaves c)

let test_comp_balanced () =
  let c = C.balanced ~leaves:8 ~leaf_work:100 in
  check Alcotest.int "work" 800 (C.total_work c);
  check Alcotest.int "span" 100 (C.span c);
  check Alcotest.int "leaves" 8 (C.num_leaves c)

let test_comp_pfor_span () =
  (* span of a pfor = largest leaf chunk *)
  let c = C.pfor ~grain:4 ~n:16 (fun _ -> 5) in
  check Alcotest.int "span" 20 (C.span c);
  let empty = C.pfor ~n:0 (fun _ -> 5) in
  check Alcotest.int "empty work" 0 (C.total_work empty);
  check Alcotest.int "empty leaves" 0 (C.num_leaves empty)

(* --- engine: conservation + determinism ------------------------------------ *)

let small_comp = C.pfor ~grain:8 ~n:2_000 (fun i -> 40 + (i mod 13))

let test_engine_work_conservation () =
  let expected = C.total_work small_comp in
  List.iter
    (fun policy ->
      let s = E.run ~machine:M.amd32 ~policy ~p:4 small_comp in
      check Alcotest.int
        (Printf.sprintf "work conserved under %s" (E.policy_name policy))
        expected s.E.total_work)
    [ E.Ws; E.Uslcws; E.Signal; E.Cons; E.Half; E.Lace; E.Private_deques ]

let test_engine_deterministic () =
  List.iter
    (fun policy ->
      let a = E.run ~machine:M.amd32 ~policy ~p:8 small_comp in
      let b = E.run ~machine:M.amd32 ~policy ~p:8 small_comp in
      check Alcotest.int "same makespan" a.E.makespan b.E.makespan;
      check Alcotest.int "same steals" a.E.steals b.E.steals;
      check Alcotest.int "same fences" a.E.fences b.E.fences)
    [ E.Ws; E.Signal; E.Half ]

let test_engine_seed_matters () =
  let a = E.run ~machine:M.amd32 ~policy:E.Ws ~p:8 ~seed:1L small_comp in
  let b = E.run ~machine:M.amd32 ~policy:E.Ws ~p:8 ~seed:2L small_comp in
  (* Different victim choices; makespans normally differ (not required,
     but steal patterns must at least be recorded independently). *)
  Alcotest.(check bool) "runs complete" true (a.E.makespan > 0 && b.E.makespan > 0)

let test_engine_p1_no_steals () =
  let s = E.run ~machine:M.amd32 ~policy:E.Signal ~p:1 small_comp in
  check Alcotest.int "no steal attempts" 0 s.E.steal_attempts;
  check Alcotest.int "no signals" 0 s.E.signals_sent;
  Alcotest.(check bool) "makespan >= work" true (s.E.makespan >= C.total_work small_comp)

let test_engine_scaling () =
  let big = C.pfor ~grain:16 ~n:20_000 (fun _ -> 50) in
  let m1 = (E.run ~machine:M.amd32 ~policy:E.Ws ~p:1 big).E.makespan in
  let m4 = (E.run ~machine:M.amd32 ~policy:E.Ws ~p:4 big).E.makespan in
  let m16 = (E.run ~machine:M.amd32 ~policy:E.Ws ~p:16 big).E.makespan in
  Alcotest.(check bool) "4 workers ~4x faster" true
    (float_of_int m1 /. float_of_int m4 > 3.0);
  Alcotest.(check bool) "16 workers faster still" true (m16 < m4)

let test_lcws_fence_elimination () =
  let ws = E.run ~machine:M.amd32 ~policy:E.Ws ~p:4 small_comp in
  let us = E.run ~machine:M.amd32 ~policy:E.Uslcws ~p:4 small_comp in
  Alcotest.(check bool)
    (Printf.sprintf "uslcws fences (%d) << ws fences (%d)" us.E.fences ws.E.fences)
    true
    (float_of_int us.E.fences < 0.05 *. float_of_int ws.E.fences)

let test_signal_latency_accounting () =
  let s = E.run ~machine:M.amd32 ~policy:E.Signal ~p:8 small_comp in
  Alcotest.(check bool) "some signals" true (s.E.signals_sent > 0);
  Alcotest.(check bool) "handled <= sent" true (s.E.signals_handled <= s.E.signals_sent);
  Alcotest.(check bool) "steals need exposure" true (s.E.steals <= s.E.exposed)

let test_uslcws_exposure_only_at_boundaries () =
  (* A single long sequential task with a forked sibling: USLCWS cannot
     expose until the long task finishes, Signal can. The thief therefore
     steals much earlier under Signal. *)
  let comp = C.Fork (C.Work 500_000, C.Work 500_000) in
  let us = E.run ~machine:M.amd32 ~policy:E.Uslcws ~p:2 comp in
  let sg = E.run ~machine:M.amd32 ~policy:E.Signal ~p:2 comp in
  Alcotest.(check bool)
    (Printf.sprintf "signal (%d) beats uslcws (%d) on long tasks" sg.E.makespan us.E.makespan)
    true
    (sg.E.makespan < us.E.makespan);
  (* Signal achieves near-perfect overlap: makespan close to half the work. *)
  Alcotest.(check bool) "signal overlaps" true (sg.E.makespan < 700_000)

let test_cons_requires_two_tasks () =
  (* One forked task only: Cons never exposes (needs >= 2 private). *)
  let comp = C.Fork (C.Work 100_000, C.Work 100_000) in
  let s = E.run ~machine:M.amd32 ~policy:E.Cons ~p:2 comp in
  check Alcotest.int "nothing exposed" 0 s.E.exposed;
  (* Deep fork chains have >= 2 private tasks: Cons does expose. *)
  let deep = C.balanced ~leaves:64 ~leaf_work:5_000 in
  let s2 = E.run ~machine:M.amd32 ~policy:E.Cons ~p:4 deep in
  Alcotest.(check bool) "exposes with enough tasks" true (s2.E.exposed > 0)

let test_half_exposes_more () =
  let deep = C.balanced ~leaves:256 ~leaf_work:2_000 in
  let one = E.run ~machine:M.amd32 ~policy:E.Signal ~p:8 deep in
  let half = E.run ~machine:M.amd32 ~policy:E.Half ~p:8 deep in
  Alcotest.(check bool)
    (Printf.sprintf "half exposes >= signal per handled signal (%d/%d vs %d/%d)" half.E.exposed
       half.E.signals_handled one.E.exposed one.E.signals_handled)
    true
    (half.E.signals_handled = 0
    || float_of_int half.E.exposed /. float_of_int half.E.signals_handled
       >= float_of_int one.E.exposed /. float_of_int (max 1 one.E.signals_handled))

let test_private_no_cas () =
  let s = E.run ~machine:M.amd32 ~policy:E.Private_deques ~p:4 small_comp in
  check Alcotest.int "private deques never CAS" 0 s.E.cas;
  Alcotest.(check bool) "work still balanced (some transfers)" true (s.E.signals_handled > 0)

let test_exposed_not_stolen () =
  let s = { (E.run ~machine:M.amd32 ~policy:E.Signal ~p:2 small_comp) with E.exposed = 10; E.steals = 3 } in
  check Alcotest.int "ens" 7 (E.exposed_not_stolen s)

let prop_makespan_at_least_span_work =
  qtest "makespan >= max(span, work/p)" QCheck2.Gen.(pair (int_range 1 16) (int_range 1 6))
    (fun (p, leaves_pow) ->
      let comp = C.balanced ~leaves:(1 lsl leaves_pow) ~leaf_work:1_000 in
      let s = E.run ~machine:M.intel16 ~policy:E.Ws ~p comp in
      s.E.makespan >= C.span comp
      && s.E.makespan >= C.total_work comp / p)

(* Random fork-join DAGs: work conservation and completion must hold for
   every policy on arbitrary computation shapes, not just the curated
   workloads. *)
let comp_gen =
  let open QCheck2.Gen in
  sized_size (int_range 0 5) @@ fix (fun self n ->
      if n = 0 then map (fun w -> C.Work w) (int_range 0 2_000)
      else
        oneof
          [
            map (fun w -> C.Work w) (int_range 0 2_000);
            map2 (fun a b -> C.Fork (a, b)) (self (n / 2)) (self (n / 2));
            map (fun l -> C.Seq l) (list_size (int_range 0 4) (self (n / 2)));
            map2
              (fun n_iters grain -> C.pfor ~grain ~n:n_iters (fun i -> 10 + (i mod 7)))
              (int_range 0 200) (int_range 1 32);
          ])

let prop_random_dags =
  qtest ~count:60 "random DAGs complete under every policy"
    QCheck2.Gen.(pair comp_gen (int_range 1 8))
    (fun (comp, p) ->
      let work = C.total_work comp in
      List.for_all
        (fun policy ->
          let s = E.run ~machine:M.intel12 ~policy ~p comp in
          s.E.total_work = work && s.E.makespan >= 0)
        [ E.Ws; E.Uslcws; E.Signal; E.Cons; E.Half; E.Lace; E.Private_deques ])

(* --- golden stats ------------------------------------------------------------- *)

(* Full [Engine.stats] records pinned for a few models at P=2 and P=32
   under the five paper policies: a BFS grid, a sort, and integer sort
   with [steal_batch:4] under both victim policies. Any engine refactor
   must leave the simulated schedule, and so every field, unchanged. *)

let stats_fields (s : E.stats) =
  [
    ("makespan", s.E.makespan);
    ("total_work", s.E.total_work);
    ("fences", s.E.fences);
    ("cas", s.E.cas);
    ("steal_attempts", s.E.steal_attempts);
    ("steals", s.E.steals);
    ("exposed", s.E.exposed);
    ("taken_back", s.E.taken_back);
    ("signals_sent", s.E.signals_sent);
    ("signals_handled", s.E.signals_handled);
    ("tasks", s.E.tasks);
    ("idle_cycles", s.E.idle_cycles);
    ("tasks_migrated", s.E.tasks_migrated);
    ("steals_batched", s.E.steals_batched);
    ("near_steals", s.E.near_steals);
    ("far_steals", s.E.far_steals);
    ("cache_miss_cost", s.E.cache_miss_cost);
    ("policy_switches", s.E.policy_switches);
  ]

(* label, bench, instance, steal_batch, steal_policy; all at scale 0.05
   on AMD32 with the default seed. *)
let golden_models =
  [
    ("bfs_grid", "breadthFirstSearch", "gridGraph_2D", 1, Lcws_sync.Victim_policy.Uniform);
    ("sort", "comparisonSort", "randomSeq_double", 1, Lcws_sync.Victim_policy.Uniform);
    ("isort_batch4", "integerSort", "randomSeq_int", 4, Lcws_sync.Victim_policy.Uniform);
    ("isort_batch4_near", "integerSort", "randomSeq_int", 4, Lcws_sync.Victim_policy.Near_first);
  ]

(* label, p, policy, fields in [stats_fields] order *)
let golden_stats =
  [
    ("bfs_grid", 2, E.Ws, [| 5615008; 10081974; 3204; 1500; 1404; 300; 0; 0; 0; 0; 2100; 88320; 300; 0; 300; 0; 96000; 0 |]);
    ("bfs_grid", 2, E.Uslcws, [| 6663071; 10081974; 0; 300; 7681; 300; 300; 0; 3867; 600; 2100; 590480; 300; 0; 300; 0; 96000; 0 |]);
    ("bfs_grid", 2, E.Signal, [| 6310518; 10081974; 0; 300; 3641; 300; 300; 0; 300; 300; 2100; 267280; 300; 0; 300; 0; 96000; 0 |]);
    ("bfs_grid", 2, E.Cons, [| 6311318; 10081974; 0; 300; 3645; 300; 300; 0; 300; 300; 2100; 267600; 300; 0; 300; 0; 96000; 0 |]);
    ("bfs_grid", 2, E.Half, [| 6314818; 10081974; 600; 600; 3445; 300; 600; 300; 300; 300; 2100; 251600; 300; 0; 300; 0; 96000; 0 |]);
    ("bfs_grid", 32, E.Ws, [| 2807380; 10081974; 161154; 2100; 161149; 2095; 0; 0; 0; 0; 2100; 12724320; 2095; 0; 2095; 0; 670400; 0 |]);
    ("bfs_grid", 32, E.Uslcws, [| 5857692; 10081974; 582; 900; 442487; 609; 900; 291; 14642; 1500; 2100; 35350240; 609; 0; 609; 0; 194880; 0 |]);
    ("bfs_grid", 32, E.Signal, [| 4835164; 10081974; 56; 1522; 346545; 1494; 1522; 28; 1783; 1782; 2100; 27604080; 1494; 0; 1494; 0; 478080; 0 |]);
    ("bfs_grid", 32, E.Cons, [| 5273890; 10081974; 0; 631; 389277; 631; 631; 0; 883; 882; 2100; 31091680; 631; 0; 631; 0; 201920; 0 |]);
    ("bfs_grid", 32, E.Half, [| 4813680; 10081974; 60; 1539; 345166; 1509; 1539; 30; 1737; 1735; 2100; 27492560; 1509; 0; 1509; 0; 482880; 0 |]);
    ("sort", 2, E.Ws, [| 303221; 525000; 187; 9; 157; 1; 0; 0; 0; 0; 31; 12480; 1; 0; 1; 0; 320; 0 |]);
    ("sort", 2, E.Uslcws, [| 306066; 525000; 0; 1; 215; 1; 1; 0; 12; 1; 31; 17120; 1; 0; 1; 0; 320; 0 |]);
    ("sort", 2, E.Signal, [| 304516; 525000; 0; 1; 200; 1; 1; 0; 1; 1; 31; 15920; 1; 0; 1; 0; 320; 0 |]);
    ("sort", 2, E.Cons, [| 304916; 525000; 0; 1; 202; 1; 1; 0; 1; 1; 31; 16080; 1; 0; 1; 0; 320; 0 |]);
    ("sort", 2, E.Half, [| 304584; 525000; 4; 2; 199; 1; 3; 2; 1; 1; 31; 15840; 1; 0; 1; 0; 320; 0 |]);
    ("sort", 32, E.Ws, [| 159979; 525000; 9374; 31; 9373; 30; 0; 0; 0; 0; 31; 747440; 30; 0; 30; 0; 9600; 0 |]);
    ("sort", 32, E.Uslcws, [| 178860; 525000; 0; 13; 13001; 13; 13; 0; 194; 22; 31; 1039040; 13; 0; 13; 0; 4160; 0 |]);
    ("sort", 32, E.Signal, [| 173332; 525000; 2; 22; 12345; 21; 22; 1; 26; 26; 31; 985920; 21; 0; 21; 0; 6720; 0 |]);
    ("sort", 32, E.Cons, [| 177010; 525000; 0; 11; 12754; 11; 11; 0; 12; 12; 31; 1019440; 11; 0; 11; 0; 3520; 0 |]);
    ("sort", 32, E.Half, [| 170030; 525000; 0; 22; 12126; 22; 22; 0; 21; 21; 31; 968320; 22; 0; 22; 0; 7040; 0 |]);
    ("isort_batch4", 2, E.Ws, [| 364632; 689490; 154; 66; 27; 11; 0; 0; 0; 0; 138; 1280; 16; 5; 11; 0; 5120; 0 |]);
    ("isort_batch4", 2, E.Uslcws, [| 383328; 689490; 0; 6; 178; 6; 6; 0; 90; 12; 138; 13760; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4", 2, E.Signal, [| 371613; 689490; 0; 6; 73; 6; 6; 0; 6; 6; 138; 5360; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4", 2, E.Cons, [| 372013; 689490; 0; 6; 75; 6; 6; 0; 6; 6; 138; 5520; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4", 2, E.Half, [| 371484; 689490; 18; 12; 67; 6; 15; 9; 6; 6; 138; 4880; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4", 32, E.Ws, [| 88526; 689490; 4276; 147; 4274; 136; 0; 0; 0; 0; 138; 331040; 145; 9; 136; 0; 46400; 0 |]);
    ("isort_batch4", 32, E.Uslcws, [| 191277; 689490; 14; 57; 13535; 50; 57; 7; 888; 90; 138; 1078800; 50; 0; 50; 0; 16000; 0 |]);
    ("isort_batch4", 32, E.Signal, [| 143549; 689490; 10; 103; 8772; 98; 103; 5; 118; 118; 138; 693920; 98; 0; 98; 0; 31360; 0 |]);
    ("isort_batch4", 32, E.Cons, [| 155714; 689490; 0; 51; 10245; 51; 51; 0; 59; 59; 138; 815520; 51; 0; 51; 0; 16320; 0 |]);
    ("isort_batch4", 32, E.Half, [| 146911; 689490; 6; 107; 9117; 104; 107; 3; 108; 108; 138; 721040; 104; 0; 104; 0; 33280; 0 |]);
    ("isort_batch4_near", 2, E.Ws, [| 364632; 689490; 154; 66; 27; 11; 0; 0; 0; 0; 138; 1280; 16; 5; 11; 0; 5120; 0 |]);
    ("isort_batch4_near", 2, E.Uslcws, [| 383328; 689490; 0; 6; 178; 6; 6; 0; 90; 12; 138; 13760; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4_near", 2, E.Signal, [| 371613; 689490; 0; 6; 73; 6; 6; 0; 6; 6; 138; 5360; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4_near", 2, E.Cons, [| 372013; 689490; 0; 6; 75; 6; 6; 0; 6; 6; 138; 5520; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4_near", 2, E.Half, [| 371484; 689490; 18; 12; 67; 6; 15; 9; 6; 6; 138; 4880; 6; 0; 6; 0; 1920; 0 |]);
    ("isort_batch4_near", 32, E.Ws, [| 86714; 689490; 4158; 146; 4155; 135; 0; 0; 0; 0; 138; 321600; 144; 9; 135; 0; 46080; 0 |]);
    ("isort_batch4_near", 32, E.Uslcws, [| 195265; 689490; 14; 57; 13854; 50; 57; 7; 887; 90; 138; 1104320; 50; 0; 50; 0; 16000; 0 |]);
    ("isort_batch4_near", 32, E.Signal, [| 153289; 689490; 8; 103; 9589; 99; 103; 4; 114; 111; 138; 759200; 99; 0; 99; 0; 31680; 0 |]);
    ("isort_batch4_near", 32, E.Cons, [| 154164; 689490; 0; 50; 10102; 50; 50; 0; 61; 61; 138; 804160; 50; 0; 50; 0; 16000; 0 |]);
    ("isort_batch4_near", 32, E.Half, [| 141710; 689490; 10; 108; 8732; 103; 108; 5; 104; 104; 138; 690320; 103; 0; 103; 0; 32960; 0 |]);
  ]

let test_golden_stats () =
  List.iter
    (fun (label, bench, instance, steal_batch, steal_policy) ->
      let comp = (Option.get (W.find ~bench ~instance)).W.build ~scale:0.05 in
      List.iter
        (fun (l, p, policy, want) ->
          if l = label then begin
            let got =
              stats_fields (E.run ~machine:M.amd32 ~policy ~p ~steal_batch ~steal_policy comp)
            in
            check
              Alcotest.(list (pair string int))
              (Printf.sprintf "%s P=%d %s" label p (E.policy_name policy))
              (List.map2 (fun (name, _) v -> (name, v)) got (Array.to_list want))
              got
          end)
        golden_stats)
    golden_models

(* --- deque growth -------------------------------------------------------------- *)

(* A left-deep fork chain: every right child waits in the forking
   worker's deque until the chain bottoms out. *)
let left_deep depth =
  let rec go d acc = if d = 0 then acc else go (d - 1) (C.Fork (acc, C.Work 30)) in
  go depth (C.Work 50)

let check_growth_run what ~work run =
  let a = run () and b = run () in
  check Alcotest.int (what ^ ": total_work") work a.E.total_work;
  check Alcotest.(list (pair string int)) (what ^ ": repeats") (stats_fields a) (stats_fields b);
  a

(* Worker deques start at 4 slots and double on demand, so a chain of
   depth 2000 grows the owner's deque nine times. *)
let test_deque_growth_fork_chain () =
  let comp = left_deep 2_000 in
  let work = C.total_work comp in
  List.iter
    (fun p ->
      List.iter
        (fun policy ->
          ignore
            (check_growth_run
               (Printf.sprintf "%s P=%d" (E.policy_name policy) p)
               ~work
               (fun () -> E.run ~machine:M.amd32 ~policy ~p comp)))
        [ E.Ws; E.Uslcws; E.Signal; E.Cons; E.Half; E.Lace; E.Private_deques ])
    [ 1; 4 ];
  (* 70000 tasks pending on one worker: the run is not bounded by any
     fixed deque size. *)
  let deep = left_deep 70_000 in
  ignore
    (check_growth_run "ws P=1 depth 70000" ~work:(C.total_work deep) (fun () ->
         E.run ~machine:M.amd32 ~policy:E.Ws ~p:1 deep))

(* Batched steals push their extras into the thief's deque through the
   same growth path. A thief only steals with an empty deque, and a full
   [steal_batch:8] episode hands it 7 extras, more than the 4 slots a
   fresh deque has. The chain keeps worker 0's public part deep (all of
   it under [Ws], half the private part per exposure under [Half]), so
   full batches of 8 occur; the trace's [Steal_batch] events show them. *)
let test_deque_growth_batched_steals () =
  let comp = left_deep 400 in
  let work = C.total_work comp in
  List.iter
    (fun policy ->
      let what = E.policy_name policy in
      let run ?trace () = E.run ~machine:M.amd32 ~policy ~p:8 ~steal_batch:8 ?trace comp in
      ignore (check_growth_run what ~work run);
      let trace = Trace.create ~capacity:16_384 ~num_workers:8 () in
      ignore (run ~trace ());
      let largest = ref 0 in
      for worker = 0 to 7 do
        check Alcotest.int (what ^ ": no events dropped") 0 (Trace.dropped trace ~worker);
        Trace.iter_events trace ~worker (fun ~time:_ kind ~arg ->
            if kind = Trace.Steal_batch then largest := max !largest arg)
      done;
      check Alcotest.int (what ^ ": largest batch") 8 !largest)
    [ E.Ws; E.Half ]

(* --- machines --------------------------------------------------------------- *)

let test_machines () =
  check Alcotest.int "3 machines" 3 (List.length M.all);
  check Alcotest.(option string) "find amd32" (Some "AMD32")
    (Option.map (fun m -> m.M.name) (M.find "amd32"));
  check Alcotest.(option string) "find none" None (Option.map (fun m -> m.M.name) (M.find "xyz"));
  check (Alcotest.list Alcotest.int) "sweep 12" [ 1; 2; 4; 8; 12 ] (M.processor_sweep M.intel12);
  check (Alcotest.list Alcotest.int) "sweep 32" [ 1; 2; 4; 8; 16; 32 ] (M.processor_sweep M.amd32);
  check (Alcotest.list Alcotest.int) "sweep 16" [ 1; 2; 4; 8; 16 ] (M.processor_sweep M.intel16)

let test_machine_ordering () =
  List.iter
    (fun (m : M.t) ->
      Alcotest.(check bool) "fence << signal" true (m.M.fence_cost * 10 < m.M.signal_send_cost);
      Alcotest.(check bool) "plain < fence" true (m.M.plain_op_cost < m.M.fence_cost))
    M.all

(* --- workloads ---------------------------------------------------------------- *)

let test_workloads_registry () =
  Alcotest.(check bool) "rich registry" true (List.length W.all >= 20);
  let c = W.find ~bench:"integerSort" ~instance:"randomSeq_int" in
  Alcotest.(check bool) "find works" true (c <> None);
  check Alcotest.(option Alcotest.unit) "find missing" None
    (Option.map ignore (W.find ~bench:"nope" ~instance:"nope"))

let workload_cases =
  List.map
    (fun (c : W.config) ->
      Alcotest.test_case (Printf.sprintf "%s/%s" c.W.bench c.W.instance) `Quick (fun () ->
          let comp = c.W.build ~scale:0.05 in
          let work = Sim.Comp.total_work comp in
          Alcotest.(check bool) "has work" true (work > 0);
          let s = E.run ~machine:M.amd32 ~policy:E.Signal ~p:2 comp in
          check Alcotest.int "conserves work" work s.E.total_work))
    W.all

let () =
  Alcotest.run "sim"
    [
      ( "comp",
        [
          Alcotest.test_case "work/span/leaves" `Quick test_comp_work;
          Alcotest.test_case "balanced" `Quick test_comp_balanced;
          Alcotest.test_case "pfor span" `Quick test_comp_pfor_span;
        ] );
      ( "engine",
        [
          Alcotest.test_case "work conservation" `Quick test_engine_work_conservation;
          Alcotest.test_case "deterministic" `Quick test_engine_deterministic;
          Alcotest.test_case "seeded" `Quick test_engine_seed_matters;
          Alcotest.test_case "P=1 no steals" `Quick test_engine_p1_no_steals;
          Alcotest.test_case "scaling" `Quick test_engine_scaling;
          Alcotest.test_case "LCWS eliminates fences" `Quick test_lcws_fence_elimination;
          Alcotest.test_case "signal accounting" `Quick test_signal_latency_accounting;
          Alcotest.test_case "USLCWS boundary-only exposure" `Quick
            test_uslcws_exposure_only_at_boundaries;
          Alcotest.test_case "Cons needs two tasks" `Quick test_cons_requires_two_tasks;
          Alcotest.test_case "Half exposes more" `Quick test_half_exposes_more;
          Alcotest.test_case "Private deques: no CAS" `Quick test_private_no_cas;
          Alcotest.test_case "exposed_not_stolen" `Quick test_exposed_not_stolen;
          prop_makespan_at_least_span_work;
          prop_random_dags;
          Alcotest.test_case "golden stats" `Quick test_golden_stats;
          Alcotest.test_case "deque growth: fork chain" `Quick test_deque_growth_fork_chain;
          Alcotest.test_case "deque growth: batched steals" `Quick
            test_deque_growth_batched_steals;
        ] );
      ( "machines",
        [
          Alcotest.test_case "table" `Quick test_machines;
          Alcotest.test_case "cost ordering" `Quick test_machine_ordering;
        ] );
      ("workloads", Alcotest.test_case "registry" `Quick test_workloads_registry :: workload_cases);
    ]
