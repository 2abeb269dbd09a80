(* Scheduler runtime tests: correctness of fork_join / parallel_for under
   every variant, exception propagation, pool lifecycle, counters. *)

open Lcws
module S = Scheduler

let check = Alcotest.check

let with_pool ?(workers = 4) variant f =
  let pool = S.Pool.create ~num_workers:workers ~variant () in
  Fun.protect ~finally:(fun () -> S.Pool.shutdown pool) (fun () -> f pool)

let rec fib n =
  if n < 10 then begin
    let rec f n = if n < 2 then n else f (n - 1) + f (n - 2) in
    f n
  end
  else begin
    let a, b = S.Ops.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b
  end

let test_fib variant () =
  with_pool variant (fun pool ->
      check Alcotest.int "fib 20" 6765 (S.Pool.run pool (fun () -> fib 20)))

let test_parallel_for variant () =
  with_pool variant (fun pool ->
      let n = 100_000 in
      let hits = Array.make n 0 in
      S.Pool.run pool (fun () ->
          S.Ops.parallel_for ~grain:64 ~start:0 ~stop:n (fun i -> hits.(i) <- hits.(i) + 1));
      let total = Array.fold_left ( + ) 0 hits in
      check Alcotest.int "every index exactly once" n total;
      Alcotest.(check bool) "no double writes" true (Array.for_all (fun v -> v = 1) hits))

let test_nested variant () =
  with_pool variant (fun pool ->
      let result =
        S.Pool.run pool (fun () ->
            let (a, b), (c, d) =
              S.Ops.fork_join
                (fun () -> S.Ops.fork_join (fun () -> fib 15) (fun () -> fib 14))
                (fun () -> S.Ops.fork_join (fun () -> fib 13) (fun () -> fib 12))
            in
            a + b + c + d)
      in
      check Alcotest.int "nested" (610 + 377 + 233 + 144) result)

let test_sequential_fallback () =
  (* Outside a pool, the API degrades to sequential execution. *)
  let a, b = S.Ops.fork_join (fun () -> 1) (fun () -> 2) in
  check Alcotest.int "fork_join outside pool" 3 (a + b);
  let acc = ref 0 in
  S.Ops.parallel_for ~start:0 ~stop:10 (fun i -> acc := !acc + i);
  check Alcotest.int "parallel_for outside pool" 45 !acc;
  S.Ops.tick ();
  check Alcotest.int "my_id outside pool" 0 (S.Ops.my_id ());
  check Alcotest.int "num_workers outside pool" 1 (S.Ops.num_workers ())

exception Boom

let test_exception_left variant () =
  with_pool variant (fun pool ->
      Alcotest.check_raises "f raises" Boom (fun () ->
          S.Pool.run pool (fun () ->
              ignore (S.Ops.fork_join (fun () -> raise Boom) (fun () -> fib 12)))))

let test_exception_right variant () =
  with_pool variant (fun pool ->
      Alcotest.check_raises "g raises" Boom (fun () ->
          S.Pool.run pool (fun () ->
              ignore (S.Ops.fork_join (fun () -> fib 12) (fun () -> raise Boom)))))

let test_pool_reuse variant () =
  with_pool variant (fun pool ->
      for _ = 1 to 5 do
        check Alcotest.int "repeated runs" 55 (S.Pool.run pool (fun () -> fib 10))
      done)

let test_one_worker variant () =
  with_pool ~workers:1 variant (fun pool ->
      check Alcotest.int "single worker" 6765 (S.Pool.run pool (fun () -> fib 20)))

let test_counters_ws () =
  with_pool S.Ws (fun pool ->
      S.Pool.reset_metrics pool;
      ignore (S.Pool.run pool (fun () -> fib 18));
      let m = S.Pool.metrics pool in
      Alcotest.(check bool) "WS pops pay fences" true (m.Metrics.fences > 0);
      Alcotest.(check bool) "pushes counted" true (m.Metrics.pushes > 0);
      check Alcotest.int "no exposures in WS" 0 m.Metrics.exposed_tasks)

let test_counters_lcws_fence_light () =
  let fences variant =
    with_pool variant (fun pool ->
        S.Pool.reset_metrics pool;
        ignore (S.Pool.run pool (fun () -> fib 22));
        let m = S.Pool.metrics pool in
        (m.Metrics.fences, m.Metrics.pushes))
  in
  let ws_fences, ws_pushes = fences S.Ws in
  let sg_fences, sg_pushes = fences S.Signal in
  Alcotest.(check bool) "similar task counts" true
    (float_of_int sg_pushes > 0.5 *. float_of_int ws_pushes);
  Alcotest.(check bool)
    (Printf.sprintf "signal fences (%d) well below WS (%d)" sg_fences ws_fences)
    true
    (float_of_int sg_fences < 0.05 *. float_of_int ws_fences)

let test_exposure_happens () =
  (* With more workers than 1 and enough forking, thieves must force
     exposure on LCWS variants. On a single-core host the helpers only
     run when the OS preempts worker 0, so grow the job until they do. *)
  with_pool ~workers:4 S.Signal (fun pool ->
      let rec attempt n =
        S.Pool.reset_metrics pool;
        ignore (S.Pool.run pool (fun () -> fib n));
        let m = S.Pool.metrics pool in
        if m.Metrics.signals_sent > 0 && m.Metrics.exposed_tasks > 0 then ()
        else if n >= 34 then begin
          Alcotest.(check bool) "signals sent" true (m.Metrics.signals_sent > 0);
          Alcotest.(check bool) "exposures happened" true (m.Metrics.exposed_tasks > 0)
        end
        else attempt (n + 2)
      in
      attempt 24)

let test_metrics_reset () =
  with_pool S.Ws (fun pool ->
      ignore (S.Pool.run pool (fun () -> fib 15));
      S.Pool.reset_metrics pool;
      let m = S.Pool.metrics pool in
      check Alcotest.int "reset" 0 (m.Metrics.pushes + m.Metrics.fences))

(* The between-jobs metrics read waits for helpers to dock, but a helper
   still running a future the job never awaited cannot dock until the
   future ends: the read must return anyway (bounded wait), and so must
   a read made by that future itself, from inside the pool. *)
let test_metrics_with_straggler () =
  with_pool ~workers:2 S.Ws (fun pool ->
      let started = Atomic.make false
      and job_over = Atomic.make false
      and release = Atomic.make false
      and inner = Atomic.make (-1) in
      S.Pool.run pool (fun () ->
          ignore
            (S.Future.spawn (fun () ->
                 Atomic.set started true;
                 while not (Atomic.get job_over) do
                   Domain.cpu_relax ()
                 done;
                 Atomic.set inner (S.Pool.metrics pool).Metrics.tasks_run;
                 while not (Atomic.get release) do
                   Domain.cpu_relax ()
                 done));
          (* Hold the job open until a helper has taken the future. *)
          while not (Atomic.get started) do
            S.Ops.tick ();
            Domain.cpu_relax ()
          done);
      let t0 = Unix.gettimeofday () in
      let m = S.Pool.metrics pool in
      let waited = Unix.gettimeofday () -. t0 in
      Atomic.set job_over true;
      let deadline = Unix.gettimeofday () +. 30.0 in
      while Atomic.get inner < 0 && Unix.gettimeofday () < deadline do
        Unix.sleepf 1e-3
      done;
      Atomic.set release true;
      Alcotest.(check bool) "the root's task was counted" true (m.Metrics.tasks_run > 0);
      Alcotest.(check bool)
        (Printf.sprintf "read next to a running straggler returned (%.2fs)" waited)
        true (waited < 30.0);
      Alcotest.(check bool) "the straggler's own read returned" true (Atomic.get inner >= 0))

let test_shutdown_idempotent () =
  let pool = S.Pool.create ~num_workers:2 ~variant:S.Signal () in
  ignore (S.Pool.run pool (fun () -> fib 10));
  S.Pool.shutdown pool;
  S.Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool was shut down") (fun () ->
      ignore (S.Pool.run pool (fun () -> 0)))

let test_create_params () =
  (* Non-default pool parameters must work: tiny deques (enough for the
     recursion depth), uniform victim policy, steal-one batching, custom
     seed. *)
  let pool =
    S.Pool.create ~seed:7L ~deque_capacity:256 ~steal_policy:Lcws_sync.Victim_policy.Uniform
      ~steal_batch:1 ~num_workers:2 ~variant:S.Half ()
  in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown pool)
    (fun () -> check Alcotest.int "fib" 6765 (S.Pool.run pool (fun () -> fib 20)));
  Alcotest.check_raises "zero workers" (Invalid_argument "Pool.create: num_workers must be >= 1")
    (fun () -> ignore (S.Pool.create ~num_workers:0 ~variant:S.Ws ()))

let test_pluggable_deques () =
  (* Every deque implementation plugs into the same runtime. The
     sequential ones (lace, private) run single-worker jobs... *)
  List.iter
    (fun impl ->
      let pool = S.Pool.create ~num_workers:1 ~variant:S.Uslcws ~deque:impl () in
      Fun.protect
        ~finally:(fun () -> S.Pool.shutdown pool)
        (fun () ->
          check Alcotest.int
            (Printf.sprintf "fib on %s" (S.deque_impl_name impl))
            6765
            (S.Pool.run pool (fun () -> fib 20))))
    S.all_deque_impls;
  (* ...and the concurrent ones work cross-matched with any variant. *)
  let pool = S.Pool.create ~num_workers:2 ~variant:S.Signal ~deque:S.chase_lev_impl () in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown pool)
    (fun () -> check Alcotest.int "signal on chase-lev" 6765 (S.Pool.run pool (fun () -> fib 20)))

let test_sequential_deque_rejected () =
  List.iter
    (fun impl ->
      if not (Deque_intf.impl_concurrent impl) then
        Alcotest.check_raises
          (Printf.sprintf "%s rejected at P=2" (S.deque_impl_name impl))
          (Invalid_argument
             (Printf.sprintf
                "Pool.create: deque %S is a sequential specification; use num_workers:1"
                (S.deque_impl_name impl)))
          (fun () -> ignore (S.Pool.create ~num_workers:2 ~variant:S.Uslcws ~deque:impl ())))
    S.all_deque_impls

let test_deque_impl_names () =
  List.iter
    (fun impl ->
      let name = S.deque_impl_name impl in
      match S.deque_impl_of_string name with
      | Some impl' -> check Alcotest.string "roundtrip" name (S.deque_impl_name impl')
      | None -> Alcotest.failf "deque_impl_of_string %S failed" name)
    S.all_deque_impls;
  Alcotest.(check bool) "unknown" true (S.deque_impl_of_string "nope" = None);
  check Alcotest.string "ws default" "chase_lev" (S.deque_impl_name (S.default_deque_impl S.Ws));
  check Alcotest.string "signal default" "split"
    (S.deque_impl_name (S.default_deque_impl S.Signal))

let test_backoff_counted () =
  (* Idle loops route through Backoff: a multi-worker run on this host
     (helpers mostly starve) must record backoff pauses. *)
  with_pool ~workers:4 S.Signal (fun pool ->
      S.Pool.reset_metrics pool;
      ignore (S.Pool.run pool (fun () -> fib 24));
      let m = S.Pool.metrics pool in
      Alcotest.(check bool)
        (Printf.sprintf "backoffs recorded (%d) alongside idle loops (%d)" m.Metrics.backoffs
           m.Metrics.idle_loops)
        true
        (m.Metrics.idle_loops = 0 || m.Metrics.backoffs > 0))

(* {2 Parking} *)

let test_quiescent_parks variant () =
  (* The idle-burn acceptance criterion: when an active job goes quiet,
     every idle worker must end up parked in the pool's lot, freezing
     the idle-loop counter — instead of the old saturated-backoff spin
     that kept every core busy. The root sleeps while the helpers have
     nothing to steal; after a settling pause, a quiet window must add
     (essentially) no idle loops. *)
  with_pool ~workers:8 variant (fun pool ->
      S.Pool.reset_metrics pool;
      let in_window =
        S.Pool.run pool (fun () ->
            Unix.sleepf 0.25;
            let a = (S.Pool.metrics pool).Metrics.idle_loops in
            Unix.sleepf 0.3;
            let b = (S.Pool.metrics pool).Metrics.idle_loops in
            b - a)
      in
      let m = S.Pool.metrics pool in
      Alcotest.(check bool)
        (Printf.sprintf "helpers parked (parks=%d)" m.Metrics.parks)
        true (m.Metrics.parks > 0);
      Alcotest.(check bool)
        (Printf.sprintf "idle loops frozen in the quiet window (saw %d)" in_window)
        true (in_window <= 8))

(* Conservation law of the wake protocol: every park is classified
   exactly once, as a productive wake or a spurious one — so at
   quiescence [parks = wakes + spurious_wakes]. The pool is shut down
   before the read: only then is no worker mid-park (announced and
   counted, classification still pending). *)
let seq_fib =
  let rec f n = if n < 2 then n else f (n - 1) + f (n - 2) in
  f

let prop_park_balance c =
  let rng = Xoshiro.create (Int64.of_int c) in
  let variant = List.nth S.all_variants (Xoshiro.int rng 5) in
  let workers = 2 + Xoshiro.int rng 4 in
  let jobs = 1 + Xoshiro.int rng 3 in
  let n = 14 + Xoshiro.int rng 4 in
  let pool = S.Pool.create ~num_workers:workers ~variant () in
  let results =
    match List.init jobs (fun _ -> S.Pool.run pool (fun () -> fib n)) with
    | rs -> rs
    | exception e ->
        S.Pool.shutdown pool;
        raise e
  in
  S.Pool.shutdown pool;
  let m = S.Pool.metrics pool in
  if not (List.for_all (fun r -> r = seq_fib n) results) then
    QCheck2.Test.fail_reportf "wrong fib %d on %s x%d" n (S.variant_name variant) workers
  else if m.Metrics.parks <> m.Metrics.wakes + m.Metrics.spurious_wakes then
    QCheck2.Test.fail_reportf
      "park accounting leaked on %s x%d: parks=%d wakes=%d spurious=%d"
      (S.variant_name variant) workers m.Metrics.parks m.Metrics.wakes
      m.Metrics.spurious_wakes
  else true

let test_variant_names () =
  List.iter
    (fun v ->
      check
        Alcotest.(option string)
        "roundtrip"
        (Some (S.variant_name v))
        (Option.map S.variant_name (S.variant_of_string (S.variant_name v))))
    S.all_variants;
  check Alcotest.(option string) "unknown" None (Option.map S.variant_name (S.variant_of_string "nope"))

let test_parallel_for_grains variant () =
  with_pool variant (fun pool ->
      List.iter
        (fun grain ->
          let acc = Atomic.make 0 in
          S.Pool.run pool (fun () ->
              S.Ops.parallel_for ~grain ~start:5 ~stop:1005 (fun _ -> Atomic.incr acc));
          check Alcotest.int (Printf.sprintf "grain %d" grain) 1000 (Atomic.get acc))
        [ 1; 7; 100; 5000 ])

let test_empty_range variant () =
  with_pool variant (fun pool ->
      S.Pool.run pool (fun () -> S.Ops.parallel_for ~start:10 ~stop:10 (fun _ -> Alcotest.fail "called"));
      S.Pool.run pool (fun () -> S.Ops.parallel_for ~start:10 ~stop:5 (fun _ -> Alcotest.fail "called")))

let test_result_types variant () =
  with_pool variant (fun pool ->
      let s, f =
        S.Pool.run pool (fun () -> S.Ops.fork_join (fun () -> "left") (fun () -> 3.14))
      in
      check Alcotest.string "string result" "left" s;
      check (Alcotest.float 0.0) "float result" 3.14 f)

let test_oversubscribed variant () =
  (* 8 domains on (typically) fewer cores: the schedulers must stay
     correct and live under heavy timeslicing. *)
  with_pool ~workers:8 variant (fun pool ->
      let n = 200_000 in
      let acc = Atomic.make 0 in
      S.Pool.run pool (fun () ->
          S.Ops.parallel_for ~grain:128 ~start:0 ~stop:n (fun _ -> Atomic.incr acc));
      check Alcotest.int "all iterations" n (Atomic.get acc);
      check Alcotest.int "fib" 196418 (S.Pool.run pool (fun () -> fib 27)))

(* {2 Steal-half batching} *)

(* A skewed workload: the root spawns a burst of uneven fibers, so its
   deque runs deep while every helper starts empty — the shape batch
   stealing exists for. Correctness must hold on every variant with
   batching on, and the batch metrics must obey their conservation laws:
   every successful episode is classified near or far exactly once, a
   batched episode moved at least two tasks, and on the default flat
   topology nothing is far. (No lower bound on steal counts: on a
   single-core host helpers may rarely win a probe.) *)
let test_steal_batch_skew variant () =
  let pool = S.Pool.create ~num_workers:4 ~steal_batch:4 ~variant () in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown pool)
    (fun () ->
      S.Pool.reset_metrics pool;
      let total =
        S.Pool.run pool (fun () ->
            let futs = List.init 64 (fun i -> S.Future.spawn (fun () -> seq_fib (8 + (i mod 7)))) in
            List.fold_left (fun acc f -> acc + S.Future.await f) 0 futs)
      in
      let expected =
        List.fold_left (fun acc i -> acc + seq_fib (8 + (i mod 7))) 0 (List.init 64 Fun.id)
      in
      check Alcotest.int "skewed spawn burst sums correctly" expected total;
      let m = S.Pool.metrics pool in
      check Alcotest.int "every episode classified near xor far" m.Metrics.steals
        (m.Metrics.near_steals + m.Metrics.far_steals);
      check Alcotest.int "flat topology has no far victims" 0 m.Metrics.far_steals;
      Alcotest.(check bool)
        (Printf.sprintf "migrated (%d) covers episodes (%d)" m.Metrics.tasks_migrated
           m.Metrics.steals)
        true
        (m.Metrics.tasks_migrated >= m.Metrics.steals);
      Alcotest.(check bool)
        (Printf.sprintf "batched episodes (%d) within episodes (%d)" m.Metrics.steals_batched
           m.Metrics.steals)
        true
        (m.Metrics.steals_batched <= m.Metrics.steals);
      Alcotest.(check bool) "batched episodes moved the extras" true
        (m.Metrics.tasks_migrated >= m.Metrics.steals + m.Metrics.steals_batched))

(* steal_batch:1 is classical steal-one: no episode may batch, and
   migration collapses to the episode count. *)
let test_steal_one_degenerates variant () =
  let pool = S.Pool.create ~num_workers:3 ~steal_batch:1 ~variant () in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown pool)
    (fun () ->
      S.Pool.reset_metrics pool;
      check Alcotest.int "fib 18" 2584 (S.Pool.run pool (fun () -> fib 18));
      let m = S.Pool.metrics pool in
      check Alcotest.int "no batched episodes" 0 m.Metrics.steals_batched;
      check Alcotest.int "one task per episode" m.Metrics.steals m.Metrics.tasks_migrated)

(* A clustered topology with the near-first policy: the same laws hold,
   with far episodes now possible (and counted separately). *)
let test_steal_batch_clustered variant () =
  let topology = Lcws_sync.Victim_policy.clustered ~cluster:2 4 in
  let pool =
    S.Pool.create ~num_workers:4 ~steal_batch:4
      ~steal_policy:Lcws_sync.Victim_policy.Near_first ~topology ~variant ()
  in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown pool)
    (fun () ->
      S.Pool.reset_metrics pool;
      check Alcotest.int "fib 20" 6765 (S.Pool.run pool (fun () -> fib 20));
      let m = S.Pool.metrics pool in
      check Alcotest.int "every episode classified near xor far" m.Metrics.steals
        (m.Metrics.near_steals + m.Metrics.far_steals))

let per_variant name f =
  List.map
    (fun v -> Alcotest.test_case (Printf.sprintf "%s [%s]" name (S.variant_name v)) `Quick (f v))
    S.all_variants

let () =
  Alcotest.run "sched"
    [
      ("fib", per_variant "fib 20" test_fib);
      ("parallel_for", per_variant "coverage" test_parallel_for);
      ("nested", per_variant "nested fork_join" test_nested);
      ( "fallback",
        [ Alcotest.test_case "sequential outside pool" `Quick test_sequential_fallback ] );
      ("exceptions-left", per_variant "left raises" test_exception_left);
      ("exceptions-right", per_variant "right raises" test_exception_right);
      ("reuse", per_variant "pool reuse" test_pool_reuse);
      ("one-worker", per_variant "1 worker" test_one_worker);
      ( "counters",
        [
          Alcotest.test_case "WS counters" `Quick test_counters_ws;
          Alcotest.test_case "LCWS fence-light" `Quick test_counters_lcws_fence_light;
          Alcotest.test_case "exposure happens" `Quick test_exposure_happens;
          Alcotest.test_case "metrics reset" `Quick test_metrics_reset;
          Alcotest.test_case "metrics next to a straggler" `Quick test_metrics_with_straggler;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
          Alcotest.test_case "create params" `Quick test_create_params;
          Alcotest.test_case "variant names" `Quick test_variant_names;
        ] );
      ( "deques",
        [
          Alcotest.test_case "pluggable implementations" `Quick test_pluggable_deques;
          Alcotest.test_case "sequential specs rejected" `Quick test_sequential_deque_rejected;
          Alcotest.test_case "impl names" `Quick test_deque_impl_names;
          Alcotest.test_case "backoff counted" `Quick test_backoff_counted;
        ] );
      ("grains", per_variant "grain sweep" test_parallel_for_grains);
      ("oversubscribed", per_variant "8 workers" test_oversubscribed);
      ( "steal-batch",
        per_variant "skewed burst" test_steal_batch_skew
        @ per_variant "steal-one degenerate" test_steal_one_degenerates
        @ per_variant "clustered topology" test_steal_batch_clustered );
      ("empty-range", per_variant "empty ranges" test_empty_range);
      ("results", per_variant "heterogeneous results" test_result_types);
      ( "parking",
        per_variant "quiescent pool parks" test_quiescent_parks
        @ [
            Seedutil.qtest ~count:25 "parks = wakes + spurious at quiescence"
              QCheck2.Gen.(int_range 1 1_000_000)
              prop_park_balance;
          ] );
    ]
