(* The benchmark's own statistics and its failure accounting. *)

open Perfbench

let close = Alcotest.float 1e-9

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 2. (Bstats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Bstats.median [ 4.; 1.; 3.; 2. ])

(* Reference values from Python's statistics.quantiles(values, n=4). *)
let test_quartiles () =
  let triple = Alcotest.(triple close close close) in
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25) (Bstats.quartiles (floats 10));
  Alcotest.check triple "three" (1., 2., 3.) (Bstats.quartiles [ 3.; 1.; 2. ]);
  Alcotest.check triple "two" (0.125, 0.35, 0.575) (Bstats.quartiles [ 0.5; 0.2 ])

let test_mean () =
  Alcotest.check close "mean" 2.5 (Bstats.mean [ 4.; 1.; 3.; 2. ]);
  Alcotest.check_raises "empty" (Invalid_argument "Bstats.mean: no samples") (fun () -> ignore (Bstats.mean []))

(* One slice's samples: scheduler 0 took [dt] seconds, in one part. *)
let slice dt =
  let s = Workloads.samples ~parts:1 () in
  s.Workloads.slices.(0) <- [ dt ];
  s.Workloads.parts.(0).(0) <- [ dt ];
  s.Workloads.ops.(0) <- [ dt ];
  s

let gather dts =
  let acc = Workloads.samples ~parts:1 () in
  List.iter (fun dt -> Workloads.merge_into acc (slice dt)) dts;
  acc

let sorted xs = List.sort Float.compare xs

let floats_eq = Alcotest.(list close)

(* Slices the hypervisor stole from are left out of the reported figures
   while the clean ones are at least half, and kept in otherwise; the
   operation list always holds every slice. *)
let combine clean stolen = Workloads.combine ~all:(gather (clean @ stolen)) (gather clean) (gather stolen)

let test_combine () =
  let c = combine [ 1.; 2.; 3. ] [ 9.; 8. ] in
  Alcotest.check floats_eq "clean majority: clean slices only" [ 1.; 2.; 3. ] (sorted c.Workloads.slices.(0));
  Alcotest.check floats_eq "clean majority: clean parts only" [ 1.; 2.; 3. ] (sorted c.Workloads.parts.(0).(0));
  Alcotest.check floats_eq "every operation" [ 1.; 2.; 3.; 8.; 9. ] (sorted c.Workloads.ops.(0));
  let c = combine [ 1. ] [ 9.; 8. ] in
  Alcotest.check floats_eq "stolen majority: all slices" [ 1.; 8.; 9. ] (sorted c.Workloads.slices.(0));
  Alcotest.check floats_eq "stolen majority: all parts" [ 1.; 8.; 9. ] (sorted c.Workloads.parts.(0).(0))

(* The scale follows the host: a calibration always yields a finite,
   positive factor, with either kernel, on one domain and on two. *)
let test_calibration () =
  List.iter
    (fun (kind, n) ->
      Calib.kind := kind;
      Calib.domains := n;
      Calib.recalibrate ();
      Alcotest.(check bool) (Printf.sprintf "%d domain(s): positive, finite" n) true
        (Float.is_finite !Calib.factor && !Calib.factor > 0.);
      Alcotest.check close "scaled" (2. *. !Calib.factor) (Calib.scaled 2.))
    [ (Calib.Compute, 1); (Calib.Compute, 2); (Calib.Mixed, 1); (Calib.Mixed, 2) ]

let test_p99_refusal () =
  let opt = Alcotest.(option close) in
  Alcotest.check opt "999 samples: 9 beyond, refused" None (Bstats.p99 (floats 999));
  Alcotest.check opt "1000 samples: 10 beyond" (Some 990.) (Bstats.p99 (floats 1000));
  Alcotest.check opt "empty" None (Bstats.p99 []);
  Alcotest.check opt "windowed: one window" (Some 990.) (Bstats.windowed_p99 (floats 1000));
  Alcotest.check opt "windowed: refused below one window" None (Bstats.windowed_p99 (floats 999));
  Alcotest.check opt "windowed: median of the windows' p99s" (Some 1990.)
    (Bstats.windowed_p99 (floats 3000))

let counts t = (t.Tally.attempted, t.Tally.failed)

let pair = Alcotest.(pair int int)

let test_wrong_fib_counted () =
  let t = Tally.create () in
  let expected = Workloads.sfib 10 in
  ignore (Workloads.fib_op t ~expected (fun () -> expected));
  ignore (Workloads.fib_op t ~expected (fun () -> expected + 1));
  ignore (Workloads.fib_op t ~expected (fun () -> failwith "boom"));
  Alcotest.check pair "three attempted, two failed" (3, 2) (counts t);
  Alcotest.(check bool) "not correct" false (Tally.correct t)

let test_failing_app_check_counted () =
  let t = Tally.create () in
  let ok = { Lcws_pbbs.Suite_types.run = ignore; check = (fun () -> true) } in
  let bad = { ok with check = (fun () -> false) } in
  let raising = { ok with check = (fun () -> raise Exit) } in
  ignore (Workloads.app_check t ~name:"ok" ok);
  ignore (Workloads.app_check t ~name:"bad" bad);
  ignore (Workloads.app_check t ~name:"raising" raising);
  Alcotest.check pair "three attempted, two failed" (3, 2) (counts t);
  Alcotest.(check (list string)) "notes name the failures" [ "raising: check failed"; "bad: check failed" ] t.Tally.notes

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "p99 refusal" `Quick test_p99_refusal;
        ] );
      ( "samples",
        [
          Alcotest.test_case "stolen slices" `Quick test_combine;
          Alcotest.test_case "calibration" `Quick test_calibration;
        ] );
      ( "failures",
        [
          Alcotest.test_case "wrong fib result" `Quick test_wrong_fib_counted;
          Alcotest.test_case "failing app check" `Quick test_failing_app_check_counted;
        ] );
    ]
