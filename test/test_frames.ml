(* Allocation-light fork/join frames and lazy loop splitting: the
   per-worker frame pool must recycle safely through nesting, exceptions
   and pool growth; the un-stolen fast path must stay inside a fixed
   minor-allocation budget (the point of the frames); and the lazy
   parallel_for must match sequential execution for adversarial
   grain/range combinations while creating O(1) tasks on an unstolen
   single-worker loop. *)

open Lcws
module S = Scheduler

let with_pool ?deque ~num_workers ~variant f =
  let pool = S.Pool.create ?deque ~num_workers ~variant () in
  Fun.protect ~finally:(fun () -> S.Pool.shutdown pool) (fun () -> f pool)

(* {2 Allocation budget} *)

(* The frame pool exists so that an un-stolen fork/join costs no
   per-call join-state allocation, and the frame stores the child closure
   itself, so no per-call wrapper closure either. What remains per call
   is the owner pop's [Some] (2 words) and, for [fork_join], the result
   pair (3 words): 2 and 5 minor words. The budgets (4 and 7) leave a
   little headroom over those so the test does not chase compiler
   versions, but stay below what a per-call closure (4 words for the old
   boxing wrapper) added back would cost. Every variant is measured: the
   fast path differs per variant in its pop and poll. *)
let noop () = ()

let one () = 1

let minor_words_per_call ~variant call =
  with_pool ~num_workers:1 ~variant (fun pool ->
      S.Pool.run pool (fun () ->
          (* Warm up: fault in the frame pool and any lazy setup. *)
          for _ = 1 to 1_000 do
            call ()
          done;
          let calls = 10_000 in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            call ()
          done;
          (Gc.minor_words () -. before) /. float_of_int calls))

let check_alloc_budget ~name ~budget call =
  List.iter
    (fun variant ->
      let per_call = minor_words_per_call ~variant call in
      if per_call > budget then
        Alcotest.failf "%s: un-stolen %s allocates %.1f minor words/call (budget %.0f)"
          (S.variant_name variant) name per_call budget)
    S.all_variants

let test_unstolen_alloc_budget () =
  check_alloc_budget ~name:"fork_join_unit" ~budget:4.0 (fun () -> S.Ops.fork_join_unit noop noop)

let test_unstolen_pair_alloc_budget () =
  check_alloc_budget ~name:"fork_join" ~budget:7.0 (fun () ->
      ignore (Sys.opaque_identity (S.Ops.fork_join one one)))

(* {2 Lazy splitting: task-creation collapse} *)

(* On one worker nothing can steal, so a lazy loop must never push: the
   pre-lazy implementation pushed one task per internal node of the
   splitting tree (~n/grain of them). A tiny slack is allowed in case a
   surrounding computation pushed. *)
let test_p1_loop_pushes_nothing () =
  with_pool ~num_workers:1 ~variant:S.Uslcws (fun pool ->
      S.Pool.reset_metrics pool;
      let hits = ref 0 in
      S.Pool.run pool (fun () ->
          S.Ops.parallel_for ~grain:16 ~start:0 ~stop:100_000 (fun _ -> incr hits));
      Alcotest.(check int) "all iterations ran" 100_000 !hits;
      let m = S.Pool.metrics pool in
      if m.Metrics.pushes > 2 then
        Alcotest.failf "P=1 lazy loop pushed %d tasks (want <= 2)" m.Metrics.pushes;
      Alcotest.(check int) "no splits at P=1" 0 m.Metrics.splits)

(* Under real thieves the loop must split — otherwise nothing
   parallelizes — and every split is counted. *)
let test_multiworker_loop_splits () =
  with_pool ~num_workers:4 ~variant:S.Signal (fun pool ->
      S.Pool.reset_metrics pool;
      let n = 1 lsl 16 in
      let hits = Array.make n 0 in
      S.Pool.run pool (fun () ->
          S.Ops.parallel_for ~grain:64 ~start:0 ~stop:n (fun i ->
              hits.(i) <- hits.(i) + 1;
              (* enough work per iteration that thieves get a window *)
              ignore (Sys.opaque_identity (ref i))));
      Array.iteri
        (fun i c -> if c <> 1 then Alcotest.failf "index %d ran %d times" i c)
        hits;
      let m = S.Pool.metrics pool in
      Alcotest.(check bool) "loop split at least once" true (m.Metrics.splits > 0);
      Alcotest.(check bool) "splits were pushed" true (m.Metrics.pushes >= m.Metrics.splits))

(* {2 Lazy parallel_for vs sequential, adversarial shapes} *)

let test_lazy_for_matches_sequential () =
  with_pool ~num_workers:2 ~variant:S.Half (fun pool ->
      List.iter
        (fun (start, stop) ->
          List.iter
            (fun grain ->
              let n = max 0 (stop - start) in
              let expected = ref 0 in
              for i = start to stop - 1 do
                expected := !expected + (i * i)
              done;
              let got = Atomic.make 0 in
              let counted = Atomic.make 0 in
              S.Pool.run pool (fun () ->
                  S.Ops.parallel_for ~grain ~start ~stop (fun i ->
                      ignore (Atomic.fetch_and_add got (i * i));
                      Atomic.incr counted));
              Alcotest.(check int)
                (Printf.sprintf "sum [%d,%d) grain %d" start stop grain)
                !expected (Atomic.get got);
              Alcotest.(check int)
                (Printf.sprintf "count [%d,%d) grain %d" start stop grain)
                n (Atomic.get counted))
            [ 1; 2; 3; 7; 64; 10_000 ])
        [ (0, 0); (5, 5); (7, 6); (0, 1); (0, 37); (-13, 29); (0, 4_097); (3, 10_000) ])

exception Boom of int

(* An exception thrown mid-range propagates out of parallel_for, and the
   pool (in particular the worker frame pools) stays usable after. *)
let test_lazy_for_exception () =
  with_pool ~num_workers:2 ~variant:S.Signal (fun pool ->
      (match
         S.Pool.run pool (fun () ->
             S.Ops.parallel_for ~grain:8 ~start:0 ~stop:10_000 (fun i ->
                 if i = 5_000 then raise (Boom i)))
       with
      | () -> Alcotest.fail "expected Boom to propagate"
      | exception Boom 5000 -> ()
      | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e));
      (* The pool still computes correctly after the failed job. *)
      let total =
        S.Pool.run pool (fun () ->
            Parallel.map_reduce_range (fun i -> i) ( + ) 0 ~lo:0 ~hi:1_000)
      in
      Alcotest.(check int) "pool usable after exception" (999 * 1000 / 2) total)

(* {2 Frame reuse: nesting, exceptions, pool growth} *)

let rec spawn_chain depth =
  if depth = 0 then 1
  else
    let a, b = S.Ops.fork_join (fun () -> spawn_chain (depth - 1)) (fun () -> 1) in
    a + b

(* A depth-500 right-leaning fork chain holds 500 frames live at once on
   one worker — far past the initial pool size, forcing growth mid-use —
   and must still join every child exactly once. *)
let test_deep_nesting_grows_pool () =
  with_pool ~num_workers:1 ~variant:S.Cons (fun pool ->
      let v = S.Pool.run pool (fun () -> spawn_chain 500) in
      Alcotest.(check int) "deep chain joins every child" 501 v)

(* Exception-throwing children: whichever branch fails, the frame must
   recycle and later fork/joins on the same worker must be unaffected.
   Iterated enough times to cycle frames through failure repeatedly. *)
let test_exn_children_recycle_frames () =
  with_pool ~num_workers:2 ~variant:S.Uslcws (fun pool ->
      S.Pool.run pool (fun () ->
          for i = 1 to 200 do
            (* left branch raises; the child's result must be discarded *)
            (match S.Ops.fork_join (fun () -> raise (Boom i)) (fun () -> i) with
            | _ -> Alcotest.fail "left Boom swallowed"
            | exception Boom j -> Alcotest.(check int) "left exn wins" i j);
            (* right (stealable) branch raises *)
            (match S.Ops.fork_join (fun () -> i) (fun () -> raise (Boom (-i))) with
            | _ -> Alcotest.fail "right Boom swallowed"
            | exception Boom j -> Alcotest.(check int) "right exn surfaces" (-i) j);
            (* both raise: the left branch's exception has priority *)
            (match S.Ops.fork_join_unit (fun () -> raise (Boom i)) (fun () -> raise (Boom 0)) with
            | () -> Alcotest.fail "double Boom swallowed"
            | exception Boom j -> Alcotest.(check int) "left exn has priority" i j);
            (* and the frames still work for nested successful joins *)
            let a, b = S.Ops.fork_join (fun () -> spawn_chain 5) (fun () -> spawn_chain 3) in
            Alcotest.(check int) "nested after exceptions" (6 + 4) (a + b)
          done))

(* Multi-worker stress: many concurrent fib-style joins across every
   variant, so stolen children exercise the frame state/result protocol
   under real parallelism. *)
let rec fib n =
  if n < 2 then n
  else
    let a, b = S.Ops.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b

let test_stolen_frames_all_variants () =
  List.iter
    (fun variant ->
      with_pool ~num_workers:4 ~variant (fun pool ->
          let v = S.Pool.run pool (fun () -> fib 22) in
          Alcotest.(check int) (S.variant_name variant ^ " fib") 17711 v))
    S.all_variants

let () =
  Alcotest.run "frames"
    [
      ( "alloc",
        [
          Alcotest.test_case "un-stolen fork_join_unit minor words" `Quick
            test_unstolen_alloc_budget;
          Alcotest.test_case "un-stolen fork_join minor words" `Quick
            test_unstolen_pair_alloc_budget;
        ] );
      ( "lazy_for",
        [
          Alcotest.test_case "P=1 loop pushes nothing" `Quick test_p1_loop_pushes_nothing;
          Alcotest.test_case "multi-worker loop splits" `Quick test_multiworker_loop_splits;
          Alcotest.test_case "matches sequential (adversarial shapes)" `Quick
            test_lazy_for_matches_sequential;
          Alcotest.test_case "exception mid-range" `Quick test_lazy_for_exception;
        ] );
      ( "frame_pool",
        [
          Alcotest.test_case "deep nesting grows the pool" `Quick test_deep_nesting_grows_pool;
          Alcotest.test_case "exception-throwing children recycle" `Quick
            test_exn_children_recycle_frames;
          Alcotest.test_case "stolen frames, all variants" `Quick test_stolen_frames_all_variants;
        ] );
    ]
