(* The repository's benchmark: one workload under all five schedulers.

   Usage: main.exe --workload (apps|fib|bursts|sim) --seed N --seconds S
                   --trace (0|1) [--nproc N]

   --trace 0 sets the workload up several times (the median is
   [setup_s]), then measures it untraced for S seconds and prints the
   end-to-end metrics. --trace 1 prints the per-layer metrics instead:
   the layer probes, the workload measured once untraced and once with
   spans around every call into a layer (their difference is the
   tracing overhead), and one pass of the layers the workload leaves
   idle, so every traced run reports every layer.

   Lines before the last carry the run record (host fingerprint, seed)
   and details; the last line is the result object. *)

open Perfbench
module W = Workloads
module S = Lcws_sched.Scheduler
module M = Lcws_sync.Metrics

let workloads = [ "apps"; "fib"; "bursts"; "sim" ]

(* Least repetitions of the set-up; [setup_s] is their median. *)
let setup_reps = 9

(* Every scheduler gets at least this many passes over the fixed work in
   a measured segment, however long they take; a traced run's segments
   need fewer. *)
let min_passes = 5

let min_traced_passes = 2

let build ?spans ctx = function
  | "apps" -> W.apps ?spans ctx
  | "fib" -> W.fib ?spans ctx
  | "bursts" -> W.bursts ?spans ctx
  | _ -> W.sim ?spans ctx

(* Domains per pool. The host-speed calibration runs on as many domains
   as the work it scales: every pool's for a pooled workload, one for
   [sim]; and with the kernel that work resembles. *)
let pool_domains = ref 1

let calibrate_for (name : string) =
  Calib.domains := if name = "sim" then 1 else !pool_domains;
  Calib.kind := (match name with "fib" | "bursts" -> Calib.Compute | _ -> Calib.Mixed);
  Calib.recalibrate ()

(* Set up at least [reps] times and for at least [min_setup_s] seconds,
   keeping the first; the median set-up time. A set-up of a few
   milliseconds (fib's) is repeated a hundred times or more, so that a
   few stalls of the host do not move the median. Each starts from a
   finished major cycle, so no set-up pays for collecting its
   predecessor's garbage. *)
let min_setup_s = 1.0

let setup ?spans ?(min_s = min_setup_s) ~reps ctx name =
  let t0 = Clock.now () in
  let rec go n acc =
    if n >= reps && Clock.now () -. t0 >= min_s then List.rev acc
    else begin
      Gc.major ();
      calibrate_for name;
      let w, dt = Clock.time (fun () -> build ?spans ctx name) in
      go (n + 1) ((w, Calib.scaled dt) :: acc)
    end
  in
  let times = go 0 [] in
  (fst (List.hd times), Bstats.median (List.map snd times))

(* Slices measured with no steal, and with some, over the run. *)
let clean_slices = ref 0

let stolen_slices = ref 0

(* The timed loop: slices round-robin over the schedulers, each round
   starting one scheduler later, until [seconds] have passed and every
   scheduler has had [min_passes] passes. A slice during which the
   hypervisor stole CPU time (any steal jiffy in /proc/stat) is kept
   apart; see [Workloads.combine]. *)
let timed ?(min_passes = min_passes) (w : W.t) spans ~seconds =
  let min_slices = min_passes * w.slices_per_pass in
  let parts = Array.length w.parts in
  let all = W.samples ~parts () and clean = W.samples ~parts () and stolen = W.samples ~parts () in
  let counts = Array.make W.nv 0 in
  let t0 = Clock.now () in
  let k = ref 0 in
  while Clock.now () -. t0 < seconds || Array.exists (fun c -> c < min_slices) counts do
    let v = ((!k / W.nv) + !k) mod W.nv in
    calibrate_for w.name;
    w.s <- W.samples ~parts ();
    W.heap_peak := 0;
    let steal0 = Host.steal_jiffies () in
    w.slice spans v;
    let was_stolen = Host.steal_jiffies () > steal0 in
    w.s.heap_peaks <- [ float_of_int !W.heap_peak ];
    W.merge_into all w.s;
    W.merge_into (if was_stolen then stolen else clean) w.s;
    incr (if was_stolen then stolen_slices else clean_slices);
    (* Finish the major cycle outside the timed operations, so that the
       slice's discarded pool does not pile up and the peak heap tracks
       what the workload keeps. *)
    Gc.major ();
    counts.(v) <- counts.(v) + 1;
    incr k
  done;
  w.s <- W.combine ~all clean stolen

(* {1 Output} *)

let metrics = ref []

let add name unit value =
  if not (Float.is_finite value) then failwith (Printf.sprintf "metric %s is not finite" name);
  metrics := (name, unit, value) :: !metrics

let result tally =
  let m =
    List.rev !metrics
    |> List.map (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
    |> String.concat ", "
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (Tally.correct tally) tally.Tally.attempted tally.Tally.failed m

let detail key fields =
  Printf.printf "{%S: {%s}}\n%!" key
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields))

let num x = Printf.sprintf "%.6g" x

(* {1 End-to-end} *)

(* The reported tail, in ms, with what it is. Where every operation does
   the same work (fib, bursts) it is the windowed p99. Where the
   operations are of a few kinds of fixed, different sizes (apps, sim), a
   percentile over their mixture only says which kind sits at its rank,
   and a run holds too few operations of each kind for a tail of its
   own; there it is the median of the slowest kind, the value the
   mixture's upper percentiles settle on. *)
let tail_ms (w : W.t) v =
  if Array.length w.parts > 0 then begin
    let medians = Array.map Bstats.median w.s.parts.(v) in
    let slowest = ref 0 in
    Array.iteri (fun c m -> if m > medians.(!slowest) then slowest := c) medians;
    ("median of the slowest part, " ^ w.parts.(!slowest), medians.(!slowest) *. 1e3)
  end
  else
    match Bstats.windowed_p99 w.s.ops.(v) with
    | Some x -> ("windowed p99", x *. 1e3)
    | None -> failwith (Printf.sprintf "%s: too few operations for a p99" W.variant_names.(v))

let end_to_end (w : W.t) ~seconds ~setup_s =
  let tails = Array.init W.nv (tail_ms w) in
  Array.iteri (fun v name -> add ("time_s." ^ name) "s" (W.time_s w.s v)) W.variant_names;
  add "setup_s" "s" setup_s;
  let sum a = Array.fold_left ( +. ) 0. a in
  add "cpu_s" "s" (sum w.s.op_cpu /. sum w.s.op_wall *. seconds);
  add "heap_mb" "MB" (Bstats.median w.s.heap_peaks *. float_of_int (Sys.word_size / 8) /. 1048576.);
  Array.iteri
    (fun v name ->
      let ops = w.s.ops.(v) in
      let q1, median, q3 = Bstats.quartiles ops in
      detail ("latency." ^ name)
        [
          ("operations", string_of_int (List.length ops));
          ("median_ms", num (median *. 1e3));
          ("quartiles_ms", Printf.sprintf "[%s, %s]" (num (q1 *. 1e3)) (num (q3 *. 1e3)));
          ("tail", Printf.sprintf "%S" (fst tails.(v)));
          ("tail_ms", num (snd tails.(v)));
          ("passes", string_of_int (W.passes w.s v));
        ])
    W.variant_names

(* {1 Per-layer} *)

(* The scheduler's own counters over the segment just measured. A round
   is one operation: a burst round, a fib job, an application run. *)
let pool_ratios (w : W.t) =
  Array.iteri
    (fun v m ->
      let name = W.variant_names.(v) in
      let per_task x = M.ratio x m.M.tasks_run in
      let add_r metric unit x = add (Printf.sprintf "sched.%s.%s" metric name) unit x in
      add_r "fences_per_task" "1/task" (per_task m.M.fences);
      add_r "cas_per_task" "1/task" (per_task m.M.cas_ops);
      add_r "minor_words_per_task" "words/task" (w.s.minor_words.(v) /. float_of_int (max 1 m.M.tasks_run));
      add_r "steal_success" "ratio" (M.ratio m.M.steals m.M.steal_attempts);
      add_r "tasks_per_steal" "tasks/steal" (M.ratio m.M.tasks_migrated m.M.steals);
      add_r "exposed_not_stolen" "ratio" (M.ratio (M.exposed_not_stolen m) m.M.exposed_tasks);
      add_r "parks_per_round" "parks/round" (M.ratio m.M.parks (List.length w.s.ops.(v)));
      (* Reported, never gated: nonzero whenever a steal batches. *)
      add_r "balance_gap" "tasks"
        (float_of_int (m.M.pushes - m.M.pops - m.M.public_pops - m.M.steals)))
    w.s.counters

let pbbs_medians (w : W.t) (s : W.samples) =
  Array.iteri
    (fun v vname ->
      Array.iteri
        (fun c part -> add (Printf.sprintf "pbbs.%s.ms.%s" part vname) "ms" (Bstats.median s.parts.(v).(c) *. 1e3))
        w.parts)
    W.variant_names

let sim_sums (w : W.t) =
  Array.iteri
    (fun v name ->
      match (w.model_sums ()).(v) with
      | Some (makespan, fences) ->
          add ("sim.makespan." ^ name) "cycles" (float_of_int makespan);
          add ("sim.fences." ^ name) "count" (float_of_int fences)
      | None -> failwith "sim: some model never ran")
    W.variant_names

let fixed_work_total (w : W.t) = List.fold_left (fun acc v -> acc +. W.time_s w.s v) 0. (List.init W.nv Fun.id)

let per_layer ctx (w : W.t) ~spans ~seconds =
  let probe_spans = Span.create () in
  List.iter
    (fun (name, unit, x) -> add name unit x)
    (Layers.all ctx.W.tally probe_spans ~seed:ctx.W.seed ~nproc:ctx.W.nproc);
  (* The workload untraced, then traced: the difference of their fixed
     work times is the tracing overhead. *)
  let half = seconds *. 0.3 in
  timed ~min_passes:min_traced_passes w Span.off ~seconds:half;
  let untraced = w.s in
  let untraced_total = fixed_work_total w in
  timed ~min_passes:min_traced_passes w spans ~seconds:half;
  let overhead = (fixed_work_total w /. untraced_total) -. 1. in
  let layers, spanned = Span.self_times spans in
  detail "spans"
    ([ ("workload", Printf.sprintf "%S" w.name); ("spans", string_of_int (Span.count spans)); ("spanned_s", num spanned) ]
    @ List.map (fun (l, s) -> ("share." ^ l, num (s /. spanned))) layers
    @ [ ("tracing_overhead", num overhead) ]);
  let probe_layers, probe_spanned = Span.self_times probe_spans in
  detail "probe_spans" (("spanned_s", num probe_spanned) :: List.map (fun (l, s) -> ("self_s." ^ l, num s)) probe_layers);
  (* Layers this workload leaves idle get a short pass each. The pool
     ratios come from the workload's own pools, or for [sim], which runs
     none, from the apps pass's. *)
  let apps_pass () =
    let a = W.apps ctx in
    timed ~min_passes:3 a Span.off ~seconds:0.;
    a
  in
  if w.name = "apps" then begin
    pool_ratios w;
    pbbs_medians w untraced
  end
  else begin
    let a = apps_pass () in
    pool_ratios (if w.pooled then w else a);
    pbbs_medians a a.s
  end;
  if w.name = "sim" then sim_sums w
  else begin
    let sw = W.sim ctx in
    for _ = 1 to sw.slices_per_pass do
      for v = 0 to W.nv - 1 do
        sw.slice Span.off v
      done
    done;
    sim_sums sw
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref (Domain.recommended_domain_count ()) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " apps | fib | bursts | sim");
      ("--seed", Arg.Set_int seed, " input and pool seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " domains per pool (default: recommended domain count)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload ^ "; expected one of: " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let host = Host.start ~nproc:!nproc ~seed:!seed in
  let tally = Tally.create () in
  let ctx = { W.seed = !seed; nproc = max 1 !nproc; tally } in
  pool_domains := ctx.W.nproc;
  if !trace = 0 then begin
    let w, setup_s = setup ~reps:setup_reps ctx !workload in
    timed w Span.off ~seconds:!seconds;
    end_to_end w ~seconds:!seconds ~setup_s
  end
  else begin
    (* The traced run's spans cover its set-up and its traced segment. *)
    let spans = Span.create () in
    let w, _ = setup ~spans ~min_s:0. ~reps:1 ctx !workload in
    per_layer ctx w ~spans ~seconds:!seconds
  end;
  (let q1, m, q3 = Bstats.quartiles !Calib.seen in
   detail "host_speed"
     [
       ("reference_ms", num (Calib.reference_s *. 1e3));
       ("calibrations", string_of_int (List.length !Calib.seen));
       ("median_ms", num (m *. 1e3));
       ("quartiles_ms", Printf.sprintf "[%s, %s]" (num (q1 *. 1e3)) (num (q3 *. 1e3)));
     ]);
  detail "steal_filter" [ ("clean_slices", string_of_int !clean_slices); ("stolen_slices", string_of_int !stolen_slices) ];
  Printf.printf "{\"record\": %s}\n" (Host.to_json host);
  if tally.Tally.notes <> [] then detail "failures" [ ("first", "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") tally.Tally.notes) ^ "]") ];
  print_endline (result tally)
