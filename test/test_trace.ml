(* Tracing layer: histogram bucket geometry and percentiles, event-ring
   wraparound, latency correlation, Chrome trace-event export (validated
   with a tiny JSON parser), and end-to-end traces from the real
   scheduler and the simulator. *)

open Lcws
module H = Histogram

(* --- histogram -------------------------------------------------------- *)

let hist_exact_small () =
  for v = 0 to 15 do
    Alcotest.(check int) (Printf.sprintf "bucket of %d" v) v (H.bucket_index v)
  done;
  (* the first sub-bucketed octave is still exact: width 1 up to 31 *)
  for v = 16 to 31 do
    let lo, hi = H.bucket_bounds (H.bucket_index v) in
    Alcotest.(check (pair int int)) (Printf.sprintf "bounds of %d" v) (v, v) (lo, hi)
  done

let hist_bounds_contain () =
  (* every value lands in a bucket whose bounds contain it *)
  List.iter
    (fun v ->
      let i = H.bucket_index v in
      let lo, hi = H.bucket_bounds i in
      if not (lo <= v && v <= hi) then
        Alcotest.failf "value %d in bucket %d with bounds [%d, %d]" v i lo hi;
      if i < 0 || i >= H.num_buckets then Alcotest.failf "bucket %d out of range" i)
    [
      0; 1; 15; 16; 31; 32; 33; 63; 64; 100; 1000; 4097; 65535; 1_000_000; 123_456_789;
      max_int / 2; max_int;
    ]

let hist_bounds_monotonic () =
  (* buckets tile the value space without gaps or overlaps *)
  let prev_hi = ref (-1) in
  for i = 0 to H.num_buckets - 1 do
    let lo, hi = H.bucket_bounds i in
    if lo <> !prev_hi + 1 then Alcotest.failf "bucket %d starts at %d, expected %d" i lo (!prev_hi + 1);
    if hi < lo then Alcotest.failf "bucket %d empty range [%d, %d]" i lo hi;
    prev_hi := hi
  done

let hist_percentiles () =
  let h = H.create () in
  for v = 1 to 100 do
    H.add h v
  done;
  Alcotest.(check int) "count" 100 (H.count h);
  Alcotest.(check int) "max" 100 (H.max_value h);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check (float 0.001)) "mean" 50.5 (H.mean h);
  (* values <= 31 are exact; above, the bound is the bucket top *)
  Alcotest.(check int) "p25 exact" 25 (H.percentile h 0.25);
  let p50 = H.percentile h 0.50 in
  if p50 < 50 || p50 > 55 then Alcotest.failf "p50=%d outside [50, 55]" p50;
  let p99 = H.percentile h 0.99 in
  if p99 < 99 || p99 > 103 then Alcotest.failf "p99=%d outside [99, 103]" p99;
  Alcotest.(check int) "p100 capped at max" 100 (H.percentile h 1.0)

let hist_merge_reset () =
  let a = H.create () and b = H.create () in
  H.add a 10;
  H.add b 1000;
  H.add b 2000;
  H.merge a b;
  Alcotest.(check int) "merged count" 3 (H.count a);
  Alcotest.(check int) "merged max" 2000 (H.max_value a);
  Alcotest.(check int) "merged min" 10 (H.min_value a);
  H.reset a;
  Alcotest.(check int) "reset count" 0 (H.count a);
  Alcotest.(check int) "empty percentile" 0 (H.percentile a 0.5)

let hist_negative_clamps () =
  let h = H.create () in
  H.add h (-5);
  Alcotest.(check int) "clamped to 0" 0 (H.max_value h);
  Alcotest.(check int) "counted" 1 (H.count h)

(* --- event rings ------------------------------------------------------- *)

let ring_wraparound () =
  let t = Trace.create ~capacity:8 ~clock:(fun () -> 0) ~num_workers:2 () in
  for i = 0 to 19 do
    Trace.emit t ~worker:0 ~time:i Trace.Steal_attempt ~arg:1
  done;
  Alcotest.(check int) "length capped" 8 (Trace.length t ~worker:0);
  Alcotest.(check int) "dropped" 12 (Trace.dropped t ~worker:0);
  Alcotest.(check int) "other ring untouched" 0 (Trace.length t ~worker:1);
  Alcotest.(check int) "total counts all" 20 (Trace.total_events t);
  (* survivors are the newest 8, oldest first *)
  let times = List.map (fun (ts, _, _) -> ts) (Trace.events t ~worker:0) in
  Alcotest.(check (list int)) "newest kept in order" [ 12; 13; 14; 15; 16; 17; 18; 19 ] times;
  (* per-kind counts are maintained at record time, unaffected by wrap *)
  let attempts = List.assoc Trace.Steal_attempt (Trace.counts t) in
  Alcotest.(check int) "kind count" 20 attempts

(* Regression: the default clock used to truncate a float of seconds to
   an int, collapsing every timestamp in the same second to one value
   (all latencies measured 0). It must be an integer monotonic clock
   with visibly sub-second resolution. *)
let default_clock_monotonic () =
  let t = Trace.create ~capacity:8 ~num_workers:1 () in
  let a = Trace.now t in
  let prev = ref a in
  for _ = 1 to 10_000 do
    let v = Trace.now t in
    if v < !prev then Alcotest.failf "clock went backwards: %d after %d" v !prev;
    prev := v
  done;
  Unix.sleepf 0.002;
  let b = Trace.now t in
  if b - a < 100_000 then
    Alcotest.failf "clock advanced only %d over >= 2ms (sub-second truncation?)" (b - a)

let null_is_disabled () =
  let t = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled t);
  Alcotest.(check int) "now is 0" 0 (Trace.now t);
  (* all hooks must be harmless no-ops *)
  Trace.record_steal_attempt t ~thief:0 ~victim:1 ~time:5;
  Trace.record_steal_ok t ~thief:0 ~victim:1 ~time:9 ~search_start:2;
  Trace.record_notify t ~thief:0 ~victim:1 ~time:5;
  Trace.record_expose t ~worker:1 ~time:7 ~tasks:1;
  Trace.record_task_start t ~worker:0 ~time:1;
  Alcotest.(check int) "nothing recorded" 0 (Trace.total_events t)

let latency_correlation () =
  let t = Trace.create ~capacity:64 ~clock:(fun () -> 0) ~num_workers:2 () in
  (* thief 0 notifies victim 1 at t=100; victim exposes at t=130; the
     thief steals at t=150 having started searching at t=90 *)
  Trace.record_idle_enter t ~worker:0 ~time:90;
  Trace.record_notify t ~thief:0 ~victim:1 ~time:100;
  Trace.record_expose t ~worker:1 ~time:130 ~tasks:1;
  Trace.record_steal_ok t ~thief:0 ~victim:1 ~time:150 ~search_start:90;
  Trace.record_idle_exit t ~worker:0 ~time:150;
  let l = Trace.latencies t in
  Alcotest.(check int) "one exposure sample" 1 (H.count l.Trace.expose);
  Alcotest.(check int) "exposure latency" 30 (H.max_value l.Trace.expose);
  Alcotest.(check int) "one steal sample" 1 (H.count l.Trace.steal);
  Alcotest.(check int) "steal latency" 60 (H.max_value l.Trace.steal);
  Alcotest.(check int) "one handshake sample" 1 (H.count l.Trace.handshake);
  Alcotest.(check int) "handshake latency" 50 (H.max_value l.Trace.handshake);
  (* a second expose with no pending notify adds no sample *)
  Trace.record_expose t ~worker:1 ~time:200 ~tasks:1;
  let l2 = Trace.latencies t in
  Alcotest.(check int) "unmatched expose ignored" 1 (H.count l2.Trace.expose)

(* --- a tiny JSON parser (checks well-formedness + structure) ----------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else raise (Bad "eof") in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () <> c then raise (Bad (Printf.sprintf "expected %c at %d, got %c" c !pos (peek ())));
    advance ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          let c = peek () in
          advance ();
          (match c with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              (* \uXXXX — keep the escape opaque, we only check validity *)
              for _ = 1 to 4 do
                (match peek () with
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> ()
                | c -> raise (Bad (Printf.sprintf "bad unicode escape %c" c)));
                advance ()
              done
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((k, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | c -> raise (Bad (Printf.sprintf "bad object separator %c" c))
          in
          Obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | c -> raise (Bad (Printf.sprintf "bad array separator %c" c))
          in
          Arr (elements [])
        end
    | '"' -> Str (parse_string ())
    | 't' ->
        pos := !pos + 4;
        Bool true
    | 'f' ->
        pos := !pos + 5;
        Bool false
    | 'n' ->
        pos := !pos + 4;
        Null
    | _ ->
        let start = !pos in
        while
          !pos < n
          && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
        do
          advance ()
        done;
        if !pos = start then raise (Bad (Printf.sprintf "unexpected char at %d" start));
        Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then raise (Bad (Printf.sprintf "trailing garbage at %d" !pos));
  v

let obj_field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let check_chrome_json s ~num_workers =
  let j = try parse_json s with Bad m -> Alcotest.failf "invalid JSON: %s" m in
  let events =
    match obj_field "traceEvents" j with
    | Some (Arr evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents array"
  in
  (* every event is an object with name/ph/pid/tid/ts; B/E balance per tid *)
  let depth = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str name =
        match obj_field name ev with Some (Str s) -> s | _ -> Alcotest.failf "missing %s" name
      in
      let ph = str "ph" in
      ignore (str "name");
      let tid =
        match obj_field "tid" ev with
        | Some (Num f) -> int_of_float f
        | _ -> Alcotest.fail "missing tid"
      in
      if tid < 0 || tid >= num_workers then Alcotest.failf "tid %d out of range" tid;
      match ph with
      | "B" -> Hashtbl.replace depth tid (1 + Option.value ~default:0 (Hashtbl.find_opt depth tid))
      | "E" ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
          if d <= 0 then Alcotest.failf "unmatched E on tid %d" tid;
          Hashtbl.replace depth tid (d - 1)
      | "i" | "M" -> ()
      | other -> Alcotest.failf "unexpected phase %S" other)
    events;
  Hashtbl.iter (fun tid d -> if d <> 0 then Alcotest.failf "unclosed B on tid %d" tid) depth;
  events

let chrome_export () =
  let t = Trace.create ~capacity:64 ~clock:(fun () -> 0) ~num_workers:2 () in
  Trace.record_task_start t ~worker:0 ~time:1_000;
  Trace.record_idle_enter t ~worker:1 ~time:1_500;
  Trace.record_steal_attempt t ~thief:1 ~victim:0 ~time:2_000;
  Trace.record_notify t ~thief:1 ~victim:0 ~time:2_100;
  Trace.record_expose t ~worker:0 ~time:2_500 ~tasks:2;
  Trace.record_steal_ok t ~thief:1 ~victim:0 ~time:3_000 ~search_start:1_500;
  Trace.record_idle_exit t ~worker:1 ~time:3_000;
  Trace.record_task_end t ~worker:0 ~time:9_999;
  let events = check_chrome_json (Chrome_trace.to_string t) ~num_workers:2 in
  (* instants survive with their args *)
  let instants =
    List.filter (fun ev -> obj_field "ph" ev = Some (Str "i")) events
  in
  Alcotest.(check int) "instant events" 4 (List.length instants)

let chrome_export_unbalanced () =
  (* wraparound can orphan B/E pairs; the exporter must still emit
     balanced JSON *)
  let t = Trace.create ~capacity:4 ~clock:(fun () -> 0) ~num_workers:1 () in
  for i = 0 to 9 do
    if i mod 2 = 0 then Trace.record_task_start t ~worker:0 ~time:(i * 10)
    else Trace.record_task_end t ~worker:0 ~time:(i * 10)
  done;
  (* ring now holds E,B,E,B-ish suffix depending on parity *)
  ignore (check_chrome_json (Chrome_trace.to_string t) ~num_workers:1)

(* --- end-to-end: real scheduler ---------------------------------------- *)

let rec fib n =
  if n < 2 then n
  else
    let a, b = Scheduler.Ops.fork_join (fun () -> fib (n - 1)) (fun () -> fib (n - 2)) in
    a + b

let scheduler_traced variant () =
  let trace = Trace.create ~capacity:4096 ~num_workers:2 () in
  let pool = Scheduler.Pool.create ~num_workers:2 ~variant ~trace () in
  let r = Scheduler.Pool.run pool (fun () -> fib 15) in
  Scheduler.Pool.shutdown pool;
  Alcotest.(check int) "fib value" 610 r;
  if Trace.total_events trace = 0 then Alcotest.fail "no events recorded";
  let counts = Trace.counts trace in
  let task_starts = List.assoc Trace.Task_start counts in
  let task_ends = List.assoc Trace.Task_end counts in
  Alcotest.(check int) "task start/end balance" task_starts task_ends;
  ignore (check_chrome_json (Chrome_trace.to_string trace) ~num_workers:2);
  (* latencies must be non-negative and bounded by the run *)
  let l = Trace.latencies trace in
  if H.count l.Trace.steal > 0 && H.min_value l.Trace.steal < 0 then
    Alcotest.fail "negative steal latency"

(* Steals taken by the park re-check sweep record a latency sample too.
   A fault plan that vetoes every [steal_once] probe leaves the sweep
   (which skips the veto) as the helper's only way to steal, so every
   [Steal_ok] must come with a steal-latency sample. *)
let park_steals_have_latency variant () =
  let trace = Trace.create ~capacity:4096 ~num_workers:2 () in
  let fault = { Fault.no_faults with Fault.seed = 5L; steal_fail_prob = 1.0 } in
  let pool = Scheduler.Pool.create ~num_workers:2 ~variant ~trace ~fault () in
  for _ = 1 to 5 do
    Alcotest.(check int) "fib value" 6765 (Scheduler.Pool.run pool (fun () -> fib 20))
  done;
  Scheduler.Pool.shutdown pool;
  let m = Scheduler.Pool.metrics pool in
  let steal_ok = List.assoc Trace.Steal_ok (Trace.counts trace) in
  Alcotest.(check bool) "probes vetoed" true (m.Metrics.steal_vetoes > 0);
  Alcotest.(check bool) "re-check stole" true (steal_ok > 0);
  Alcotest.(check int) "every steal timed" steal_ok (H.count (Trace.latencies trace).Trace.steal)

let pool_rejects_small_trace () =
  let trace = Trace.create ~capacity:64 ~num_workers:1 () in
  Alcotest.check_raises "trace too small"
    (Invalid_argument "Pool.create: trace was created for fewer workers") (fun () ->
      ignore (Scheduler.Pool.create ~num_workers:2 ~variant:Scheduler.Signal ~trace ()))

(* --- end-to-end: simulator --------------------------------------------- *)

let sim_traced () =
  let machine = List.hd Lcws.Sim.Cost_model.all in
  let trace = Trace.create ~capacity:8192 ~clock:(fun () -> 0) ~num_workers:4 () in
  let stats =
    Lcws.Harness.Experiments.run_traced ~machine ~policy:Lcws.Sim.Engine.Signal ~p:4 ~scale:0.05
      ~bench:"integerSort" ~instance:"randomSeq_int" ~trace ()
  in
  ignore stats;
  if Trace.total_events trace = 0 then Alcotest.fail "no sim events";
  let counts = Trace.counts trace in
  let ok = List.assoc Trace.Steal_ok counts in
  let attempts = List.assoc Trace.Steal_attempt counts in
  if ok > attempts then Alcotest.failf "steal_ok %d > attempts %d" ok attempts;
  ignore (check_chrome_json (Chrome_trace.to_string trace) ~num_workers:4)

(* --- properties (seed pinned by LCWS_TEST_SEED, see seedutil.ml) ------ *)

(* Kind codes round-trip for every kind, and an arbitrary int either
   decodes to the kind that encodes back to it or is rejected. *)
let prop_kind_code_roundtrip code =
  if code >= 0 && code < List.length Trace.all_kinds then
    Trace.kind_code (Trace.kind_of_code code) = code
  else
    match Trace.kind_of_code code with
    | k ->
        QCheck2.Test.fail_reportf "out-of-range code %d decoded to %s" code
          (Trace.kind_name k)
    | exception Invalid_argument _ -> true

(* The ring never lies about volume: whatever random stream of events a
   worker emits into however small a ring, [length] + [dropped] equals
   the emissions, [length] never exceeds the capacity, and the survivors
   are exactly the newest suffix (times strictly increasing here). *)
let prop_ring_accounting (cap_bits, emits) =
  let capacity = 16 lsl cap_bits in
  let t = Trace.create ~capacity ~num_workers:2 () in
  let n = List.length emits in
  List.iteri
    (fun i e ->
      let kind = List.nth Trace.all_kinds (e mod List.length Trace.all_kinds) in
      Trace.emit t ~worker:0 ~time:i kind ~arg:e)
    emits;
  let len = Trace.length t ~worker:0 and drop = Trace.dropped t ~worker:0 in
  if len + drop <> n then
    QCheck2.Test.fail_reportf "length %d + dropped %d <> emitted %d" len drop n
  else if len > capacity then
    QCheck2.Test.fail_reportf "length %d exceeds capacity %d" len capacity
  else
    let times = List.map (fun (time, _, _) -> time) (Trace.events t ~worker:0) in
    times = List.init len (fun i -> n - len + i)
    || QCheck2.Test.fail_reportf "ring did not keep the newest %d events" len

(* Histogram conservation: every added value is counted, the extrema are
   exact, and any percentile falls in a bucket whose bounds contain it. *)
let prop_histogram_conserves values =
  match values with
  | [] -> true
  | _ ->
      let h = H.create () in
      List.iter (H.add h) values;
      let n = List.length values in
      H.count h = n
      && H.max_value h = List.fold_left max min_int values
      && H.min_value h = List.fold_left min max_int values
      &&
      let p = H.percentile h 0.5 in
      let lo, hi = H.bucket_bounds (H.bucket_index p) in
      lo <= p && p <= hi

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact small buckets" `Quick hist_exact_small;
          Alcotest.test_case "bounds contain" `Quick hist_bounds_contain;
          Alcotest.test_case "bounds tile" `Quick hist_bounds_monotonic;
          Alcotest.test_case "percentiles" `Quick hist_percentiles;
          Alcotest.test_case "merge and reset" `Quick hist_merge_reset;
          Alcotest.test_case "negative clamps" `Quick hist_negative_clamps;
        ] );
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick ring_wraparound;
          Alcotest.test_case "default clock monotonic" `Quick default_clock_monotonic;
          Alcotest.test_case "null sink" `Quick null_is_disabled;
          Alcotest.test_case "latency correlation" `Quick latency_correlation;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "export round-trip" `Quick chrome_export;
          Alcotest.test_case "unbalanced durations" `Quick chrome_export_unbalanced;
        ] );
      ( "end_to_end",
        [
          Alcotest.test_case "ws traced" `Quick (scheduler_traced Scheduler.Ws);
          Alcotest.test_case "signal traced" `Quick (scheduler_traced Scheduler.Signal);
          Alcotest.test_case "half traced" `Quick (scheduler_traced Scheduler.Half);
          Alcotest.test_case "park re-check steals timed (ws)" `Quick
            (park_steals_have_latency Scheduler.Ws);
          Alcotest.test_case "park re-check steals timed (signal)" `Quick
            (park_steals_have_latency Scheduler.Signal);
          Alcotest.test_case "trace size validated" `Quick pool_rejects_small_trace;
          Alcotest.test_case "simulator traced" `Quick sim_traced;
        ] );
      ( "properties",
        [
          Seedutil.qtest ~count:200 "kind codes round-trip"
            QCheck2.Gen.(int_range (-2) 40)
            prop_kind_code_roundtrip;
          Seedutil.qtest ~count:100 "ring accounting under wraparound"
            QCheck2.Gen.(pair (int_range 0 3) (list_size (int_range 0 200) nat))
            prop_ring_accounting;
          Seedutil.qtest ~count:200 "histogram conserves its stream"
            QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 1_000_000))
            prop_histogram_conserves;
        ] );
    ]
