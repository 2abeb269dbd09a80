(* Unit + property tests for the runtime-support substrate:
   Metrics, Xoshiro, Victim_policy, Backoff, Fastmath. *)

open Lcws

let check = Alcotest.check

let qtest ?(count = 500) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* --- Metrics --------------------------------------------------------- *)

let test_metrics_create_zero () =
  let m = Metrics.create () in
  check Alcotest.int "fences" 0 m.Metrics.fences;
  check Alcotest.int "cas" 0 m.Metrics.cas_ops;
  check Alcotest.int "tasks" 0 m.Metrics.tasks_run

let test_metrics_add_sum () =
  let a = Metrics.create () and b = Metrics.create () in
  a.Metrics.fences <- 3;
  a.Metrics.steals <- 2;
  b.Metrics.fences <- 4;
  b.Metrics.exposed_tasks <- 7;
  let s = Metrics.sum [| a; b |] in
  check Alcotest.int "fences summed" 7 s.Metrics.fences;
  check Alcotest.int "steals summed" 2 s.Metrics.steals;
  check Alcotest.int "exposed summed" 7 s.Metrics.exposed_tasks;
  (* sum must not alias its inputs *)
  s.Metrics.fences <- 100;
  check Alcotest.int "input untouched" 3 a.Metrics.fences

let test_metrics_reset_copy () =
  let m = Metrics.create () in
  m.Metrics.cas_ops <- 5;
  let c = Metrics.copy m in
  Metrics.reset m;
  check Alcotest.int "reset" 0 m.Metrics.cas_ops;
  check Alcotest.int "copy unaffected" 5 c.Metrics.cas_ops

let test_metrics_exposed_not_stolen () =
  let m = Metrics.create () in
  m.Metrics.exposed_tasks <- 10;
  m.Metrics.steals <- 4;
  check Alcotest.int "ens" 6 (Metrics.exposed_not_stolen m);
  m.Metrics.steals <- 15;
  check Alcotest.int "clamped" 0 (Metrics.exposed_not_stolen m)

let test_metrics_ratio () =
  check (Alcotest.float 1e-9) "ratio" 0.5 (Metrics.ratio 1 2);
  check (Alcotest.float 1e-9) "zero den" 0. (Metrics.ratio 1 0)

(* --- Xoshiro --------------------------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Xoshiro.create 42L and b = Xoshiro.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Xoshiro.next a) (Xoshiro.next b)
  done

let test_xoshiro_split_independent () =
  let root = Xoshiro.create 42L in
  let a = Xoshiro.split root 0 and b = Xoshiro.split root 1 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Xoshiro.next a = Xoshiro.next b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_xoshiro_zero_seed () =
  let t = Xoshiro.create 0L in
  let v1 = Xoshiro.next t and v2 = Xoshiro.next t in
  Alcotest.(check bool) "nonzero output" true (v1 <> 0L || v2 <> 0L)

let prop_xoshiro_int_bounds =
  qtest "xoshiro int in bounds"
    QCheck2.Gen.(pair (int_range 1 1000) (int_range 0 10_000))
    (fun (bound, salt) ->
      let t = Xoshiro.create (Int64.of_int salt) in
      let v = Xoshiro.int t bound in
      v >= 0 && v < bound)

let prop_xoshiro_other_than =
  qtest "other_than never self"
    QCheck2.Gen.(pair (int_range 2 64) (int_range 0 1000))
    (fun (bound, salt) ->
      let t = Xoshiro.create (Int64.of_int salt) in
      let self = salt mod bound in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Xoshiro.other_than t ~bound ~self in
        if v = self || v < 0 || v >= bound then ok := false
      done;
      !ok)

let test_xoshiro_float_range () =
  let t = Xoshiro.create 7L in
  for _ = 1 to 1000 do
    let f = Xoshiro.float t in
    Alcotest.(check bool) "in [0,1)" true (f >= 0. && f < 1.)
  done

(* --- Victim_policy --------------------------------------------------- *)

module Vp = Lcws_sync.Victim_policy

(* [create] without [?topology] builds the worker's own row of
   [flat nw] directly; it must behave exactly like passing [flat nw]:
   same distances, same near set, same probe stream through failures
   (Near_first escalation) and successes (affinity re-probes). *)
let test_victim_default_is_flat () =
  List.iter
    (fun nw ->
      for self = 0 to nw - 1 do
        List.iter
          (fun policy ->
            let make topology =
              Vp.create ?topology ~policy ~rng:(Xoshiro.create (Int64.of_int (nw + self))) ~self
                ~nw ()
            in
            let d = make None and f = make (Some (Vp.flat nw)) in
            let what = Printf.sprintf "%s nw=%d self=%d" (Vp.policy_name policy) nw self in
            for victim = 0 to nw - 1 do
              check Alcotest.int (what ^ ": distance") (Vp.distance f ~victim)
                (Vp.distance d ~victim);
              check Alcotest.bool (what ^ ": is_near") (Vp.is_near f ~victim)
                (Vp.is_near d ~victim)
            done;
            if nw >= 2 then
              for i = 0 to 199 do
                let vf = Vp.next f and vd = Vp.next d in
                check Alcotest.int (Printf.sprintf "%s: probe %d" what i) vf vd;
                if i mod 7 = 6 then (Vp.success f ~victim:vf; Vp.success d ~victim:vd)
                else (Vp.fail f; Vp.fail d)
              done)
          Vp.all_policies
      done)
    [ 1; 2; 3; 8; 33 ]

(* --- Backoff --------------------------------------------------------- *)

let test_backoff_basic () =
  let b = Backoff.create ~min_wait:1 ~max_wait:8 () in
  Backoff.once b;
  Backoff.once b;
  Backoff.once b;
  Backoff.reset b;
  Backoff.once b;
  Alcotest.(check pass) "no crash" () ()

let test_backoff_invalid () =
  Alcotest.check_raises "bad args" (Invalid_argument "Backoff.create") (fun () ->
      ignore (Backoff.create ~min_wait:4 ~max_wait:2 ()))

(* --- Fastmath -------------------------------------------------------- *)

let test_double2int_known () =
  check Alcotest.int "1234.56 rounds" 1235 (Fastmath.double2int 1234.56);
  check Alcotest.int "exact int" 42 (Fastmath.double2int 42.0);
  check Alcotest.int "negative" (-3) (Fastmath.double2int (-3.4))

let prop_double2int_matches_round =
  qtest "double2int = round (ties-to-even)"
    QCheck2.Gen.(float_range (-1_000_000.) 1_000_000.)
    (fun r ->
      (* The magic-constant trick rounds half to even (the hardware's
         default FP rounding mode), so compare against that spec. *)
      let fl = Float.floor r in
      let diff = r -. fl in
      let lo = int_of_float fl in
      let expected =
        if diff > 0.5 then lo + 1
        else if diff < 0.5 then lo
        else if lo mod 2 = 0 then lo
        else lo + 1
      in
      Fastmath.double2int r = expected)

let test_round_half () =
  check Alcotest.int "0" 0 (Fastmath.round_half 0);
  check Alcotest.int "1" 1 (Fastmath.round_half 1);
  check Alcotest.int "2" 1 (Fastmath.round_half 2);
  check Alcotest.int "3" 2 (Fastmath.round_half 3);
  check Alcotest.int "7" 4 (Fastmath.round_half 7);
  check Alcotest.int "8" 4 (Fastmath.round_half 8)

let prop_round_half =
  qtest "round_half = round(r/2) half-up"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun r -> Fastmath.round_half r = int_of_float (Float.round (float_of_int r /. 2.)))

let test_next_pow2 () =
  check Alcotest.int "1" 1 (Fastmath.next_pow2 1);
  check Alcotest.int "2" 2 (Fastmath.next_pow2 2);
  check Alcotest.int "3" 4 (Fastmath.next_pow2 3);
  check Alcotest.int "1000" 1024 (Fastmath.next_pow2 1000)

let prop_next_pow2 =
  qtest "next_pow2 props"
    QCheck2.Gen.(int_range 1 (1 lsl 20))
    (fun n ->
      let p = Fastmath.next_pow2 n in
      p >= n && p land (p - 1) = 0 && (p = 1 || p / 2 < n))

let test_log2 () =
  check Alcotest.int "floor 1" 0 (Fastmath.log2_floor 1);
  check Alcotest.int "floor 7" 2 (Fastmath.log2_floor 7);
  check Alcotest.int "floor 8" 3 (Fastmath.log2_floor 8);
  check Alcotest.int "ceil 8" 3 (Fastmath.log2_ceil 8);
  check Alcotest.int "ceil 9" 4 (Fastmath.log2_ceil 9)

let test_ceil_div () =
  check Alcotest.int "7/2" 4 (Fastmath.ceil_div 7 2);
  check Alcotest.int "8/2" 4 (Fastmath.ceil_div 8 2);
  check Alcotest.int "0/5" 0 (Fastmath.ceil_div 0 5)

let () =
  Alcotest.run "sync"
    [
      ( "metrics",
        [
          Alcotest.test_case "create zero" `Quick test_metrics_create_zero;
          Alcotest.test_case "add/sum" `Quick test_metrics_add_sum;
          Alcotest.test_case "reset/copy" `Quick test_metrics_reset_copy;
          Alcotest.test_case "exposed_not_stolen" `Quick test_metrics_exposed_not_stolen;
          Alcotest.test_case "ratio" `Quick test_metrics_ratio;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "split independent" `Quick test_xoshiro_split_independent;
          Alcotest.test_case "zero seed ok" `Quick test_xoshiro_zero_seed;
          Alcotest.test_case "float range" `Quick test_xoshiro_float_range;
          prop_xoshiro_int_bounds;
          prop_xoshiro_other_than;
        ] );
      ("victim_policy", [ Alcotest.test_case "default = flat" `Quick test_victim_default_is_flat ]);
      ( "backoff",
        [
          Alcotest.test_case "basic" `Quick test_backoff_basic;
          Alcotest.test_case "invalid args" `Quick test_backoff_invalid;
        ] );
      ( "fastmath",
        [
          Alcotest.test_case "double2int known" `Quick test_double2int_known;
          Alcotest.test_case "round_half known" `Quick test_round_half;
          Alcotest.test_case "next_pow2 known" `Quick test_next_pow2;
          Alcotest.test_case "log2" `Quick test_log2;
          Alcotest.test_case "ceil_div" `Quick test_ceil_div;
          prop_double2int_matches_round;
          prop_round_half;
          prop_next_pow2;
        ] );
    ]
