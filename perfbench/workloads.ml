(* The four workloads. Each is set up once per run (inputs from the
   seed, one pool per scheduler, a warm-up), then measured in slices:
   the timed loop hands out slices round-robin over the five schedulers
   so that host noise falls on all of them alike.

   A slice of a pooled workload runs on a fresh pool. On a two-core host
   the speed of fine-grained jobs is bimodal per pool — a pool keeps
   running fib(21) at either about 1.3 ms or about 2.8 ms, both modes
   using both cores — so a run with one pool per scheduler would report
   whichever mode its pools happened to land in. The figure of a slice
   is the median of its repetitions; the figure of the run is the
   median over its slices. *)

module S = Lcws_sched.Scheduler
module E = Lcws_sim.Engine
module M = Lcws_sync.Metrics

let variants = Array.of_list S.all_variants

let variant_names = Array.map S.variant_name variants

let nv = Array.length variants

type ctx = { seed : int; nproc : int; tally : Tally.t }

(* Per-scheduler samples of one measured segment. *)
type samples = {
  slices : float list array; (* per slice: median seconds per repetition *)
  parts : float list array array; (* [v].(part): per slice, median seconds of one part *)
  ops : float list array; (* seconds per operation *)
  op_cpu : float array; (* process CPU seconds inside the operations *)
  op_wall : float array; (* wall seconds inside the operations *)
  minor_words : float array; (* words allocated inside the operations *)
  mutable heap_peaks : float list; (* per slice: the largest major heap, in words, seen after an operation *)
  counters : M.t array; (* the scheduler's counters, summed over the slices' pools *)
}

let samples ?(parts = 0) () =
  {
    slices = Array.make nv [];
    parts = Array.init nv (fun _ -> Array.make parts []);
    ops = Array.make nv [];
    op_cpu = Array.make nv 0.;
    op_wall = Array.make nv 0.;
    minor_words = Array.make nv 0.;
    heap_peaks = [];
    counters = Array.init nv (fun _ -> M.create ());
  }

type t = {
  name : string;
  pooled : bool; (* [sim] runs no pool *)
  mutable s : samples;
  parts : string array; (* [apps], [sim]: the parts whose figures sum to [time_s] *)
  slices_per_pass : int; (* slices of one scheduler that cover the fixed work once *)
  slice : Span.t -> int -> unit;
  model_sums : unit -> (int * int) option array;
      (* [sim]: per policy, the exact makespan and fence sums over every
         model, once each has run *)
}

(* The fixed work's time under scheduler [v]: the sum of the parts'
   medians over the slices, or the mean over the slices. A slice's
   figure is a median, so stalls inside it do not move it; but where the
   slices fall into two modes, as fib's fresh pools do, the median over
   them jumps between the modes from run to run, while the mean is the
   expected time of a fresh pool. *)
let time_s (s : samples) v =
  if Array.length s.parts.(v) > 0 then Array.fold_left (fun acc xs -> acc +. Bstats.median xs) 0. s.parts.(v)
  else Bstats.mean s.slices.(v)

(* Passes over the fixed work that scheduler [v]'s samples hold. *)
let passes (s : samples) v =
  if Array.length s.parts.(v) > 0 then List.length s.parts.(v).(0) else List.length s.slices.(v)

let push a i x = a.(i) <- x :: a.(i)

(* Add the samples of [src], a slice just measured, to [dst]. Lists stay
   newest first. *)
let merge_into (dst : samples) (src : samples) =
  for v = 0 to nv - 1 do
    dst.slices.(v) <- src.slices.(v) @ dst.slices.(v);
    Array.iteri (fun c xs -> dst.parts.(v).(c) <- xs @ dst.parts.(v).(c)) src.parts.(v);
    dst.ops.(v) <- src.ops.(v) @ dst.ops.(v);
    dst.op_cpu.(v) <- dst.op_cpu.(v) +. src.op_cpu.(v);
    dst.op_wall.(v) <- dst.op_wall.(v) +. src.op_wall.(v);
    dst.minor_words.(v) <- dst.minor_words.(v) +. src.minor_words.(v);
    M.add dst.counters.(v) src.counters.(v)
  done;
  dst.heap_peaks <- src.heap_peaks @ dst.heap_peaks

(* The samples a run reports, from those of every slice ([all], in the
   order measured), of the slices the hypervisor left alone ([clean]) and
   of those it took CPU time from ([stolen]). Each figure that [time_s]
   takes a median or mean of uses the clean slices alone when they are at
   least half of all; otherwise, when the hypervisor stole through most of
   the run, all of them. Every other sum and list covers all slices. *)
let combine ~(all : samples) (clean : samples) (stolen : samples) =
  let pick a b = if List.length a >= List.length b then a else a @ b in
  {
    all with
    slices = Array.init nv (fun v -> pick clean.slices.(v) stolen.slices.(v));
    parts = Array.init nv (fun v -> Array.mapi (fun c xs -> pick xs stolen.parts.(v).(c)) clean.parts.(v));
  }

(* The largest major heap, in words, seen after an operation since the
   timed loop last reset it (once per slice). *)
let heap_peak = ref 0

(* Time [f] for scheduler [v]: wall, process CPU and allocated words
   all go to [v]'s samples. The time returned is scaled to the reference
   host speed ([Calib]); the CPU share is a ratio of raw times. *)
let metered s v f =
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let c0 = Clock.cpu () in
  let r, dt = Clock.time f in
  s.op_cpu.(v) <- s.op_cpu.(v) +. (Clock.cpu () -. c0);
  s.op_wall.(v) <- s.op_wall.(v) +. dt;
  let gc = Gc.quick_stat () in
  s.minor_words.(v) <- s.minor_words.(v) +. (gc.Gc.minor_words -. w0);
  heap_peak := max !heap_peak gc.Gc.heap_words;
  (r, Calib.scaled dt)

(* [metered], recording [f] as one operation. *)
let measured s v f =
  let r, dt = metered s v f in
  push s.ops v dt;
  (r, dt)

let create_pool spans ctx v =
  Span.with_ spans ~layer:"sched" "Pool.create" (fun _ ->
      S.Pool.create ~seed:(Int64.of_int ctx.seed) ~num_workers:ctx.nproc ~variant:variants.(v) ())

(* Run [f] on a fresh pool of scheduler [v]; its counters join [v]'s. *)
let with_pool spans ctx s v f =
  let pool = create_pool spans ctx v in
  Fun.protect
    ~finally:(fun () ->
      M.add s.counters.(v) (S.Pool.metrics pool);
      S.Pool.shutdown pool)
    (fun () -> f pool)

(* The set-up's share of the pools: one per scheduler, created and
   warmed with [warm]. *)
let warm_pools spans ctx warm =
  for v = 0 to nv - 1 do
    let pool = create_pool spans ctx v in
    Fun.protect ~finally:(fun () -> S.Pool.shutdown pool) (fun () -> warm pool)
  done

(* [Pool.run] spanned as a [sched] call whose body is a child span of
   [layer]. *)
let spanned_run spans pool ~layer name body =
  Span.with_ spans ~layer:"sched" "Pool.run" (fun parent ->
      S.Pool.run pool (fun () -> Span.with_ spans ~parent ~layer name (fun _ -> body ())))

(* {1 fib: fork/join with no sequential cutoff} *)

let fib_n = 18

let rec pfib n =
  if n < 2 then n
  else
    let a, b = S.Ops.fork_join (fun () -> pfib (n - 1)) (fun () -> pfib (n - 2)) in
    a + b

let rec sfib n = if n < 2 then n else sfib (n - 1) + sfib (n - 2)

(* One fib operation: a wrong result or an exception is a failure. *)
let fib_op tally ~expected compute =
  Tally.check tally ~what:"fib: wrong result" (fun () -> compute () = expected)

(* A fib slice runs jobs for this long after its warm-up job. *)
let fib_slice_s = 0.03

let fib ?(spans = Span.off) ctx =
  let expected = sfib fib_n in
  let job pool = S.Pool.run pool (fun () -> pfib fib_n) in
  warm_pools spans ctx (fun pool -> ignore (job pool));
  let rec w =
    {
      name = "fib";
      pooled = true;
      s = samples ();
      parts = [||];
      slices_per_pass = 1;
      slice =
        (fun spans v ->
          with_pool spans ctx w.s v (fun pool ->
              ignore (job pool);
              let t0 = Clock.now () and reps = ref [] in
              while Clock.now () -. t0 < fib_slice_s do
                let _, dt =
                  measured w.s v (fun () ->
                      fib_op ctx.tally ~expected (fun () ->
                          spanned_run spans pool ~layer:"sched" "fib" (fun () -> pfib fib_n)))
                in
                reps := dt :: !reps
              done;
              push w.s.slices v (Bstats.median !reps)));
      model_sums = (fun () -> [||]);
    }
  in
  w

(* {1 bursts: quiet phases that park the helpers, then uneven spawn
   bursts} *)

let burst_width = 32

let burst_rounds = 256

(* Repetitions (one [Pool.run] of [burst_rounds] rounds each) per slice. *)
let burst_reps = 2

(* The quiet phase: serial work long enough that idle helpers saturate
   their backoff and park. *)
let quiet_n = 20

let bursts ?(spans = Span.off) ctx =
  let st = Random.State.make [| ctx.seed |] in
  let leaves =
    Array.init burst_rounds (fun _ -> Array.init burst_width (fun _ -> 8 + Random.State.int st 10))
  in
  let expected = Array.map (Array.fold_left (fun acc k -> acc + sfib k) 0) leaves in
  let round r =
    ignore (Sys.opaque_identity (sfib quiet_n));
    let futs = Array.map (fun k -> S.Future.spawn (fun () -> sfib k)) leaves.(r) in
    Array.fold_left (fun acc f -> acc + S.Future.await f) 0 futs
  in
  let lat = Array.make burst_rounds 0 and sums = Array.make burst_rounds 0 in
  let job () =
    for r = 0 to burst_rounds - 1 do
      let t0 = Clock.ns () in
      sums.(r) <- round r;
      lat.(r) <- Clock.ns () - t0
    done
  in
  warm_pools spans ctx (fun pool -> S.Pool.run pool job);
  let rec w =
    {
      name = "bursts";
      pooled = true;
      s = samples ();
      parts = [||];
      slices_per_pass = 1;
      slice =
        (fun spans v ->
          with_pool spans ctx w.s v (fun pool ->
              let reps =
                List.init burst_reps (fun _ ->
                    Array.fill sums 0 burst_rounds (-1);
                    let _, dt =
                      metered w.s v (fun () -> try spanned_run spans pool ~layer:"sched" "bursts" job with _ -> ())
                    in
                    for r = 0 to burst_rounds - 1 do
                      push w.s.ops v (Calib.scaled (float_of_int lat.(r) *. 1e-9));
                      Tally.record ctx.tally ~what:"bursts: wrong round sum" (sums.(r) = expected.(r))
                    done;
                    dt)
              in
              push w.s.slices v (Bstats.median reps)));
      model_sums = (fun () -> [||]);
    }
  in
  w

(* {1 apps: the PBBS quick subset} *)

(* The scale the repository's real-engine profile runs [Suite.quick] at. *)
let apps_scale = 0.25

(* Passes over the applications per slice, and checks per slice. *)
let app_passes = 2

let app_checks = 2

let app_configs =
  List.concat_map
    (fun (b : Lcws_pbbs.Suite_types.bench) -> List.map (fun i -> (b.bname, i)) b.instances)
    Lcws_pbbs.Suite.quick
  |> Array.of_list

let app_names = Array.map (fun (b, (i : Lcws_pbbs.Suite_types.instance)) -> b ^ "." ^ i.iname) app_configs

(* Check the output of an application's last run: one attempted
   operation, failed if the check fails or raises. *)
let app_check tally ~name (p : Lcws_pbbs.Suite_types.prepared) =
  Tally.check tally ~what:(name ^ ": check failed") p.check

(* A slice runs [app_passes] passes over every application on a fresh
   pool of scheduler [v], then checks [app_checks] applications'
   outputs, rotating through them. *)
let apps ?(spans = Span.off) ctx =
  let prepared =
    Array.map
      (fun (_, (i : Lcws_pbbs.Suite_types.instance)) ->
        Span.with_ spans ~layer:"pbbs" "prepare" (fun _ -> i.prepare ~scale:apps_scale))
      app_configs
  in
  let nc = Array.length prepared in
  warm_pools spans ctx (fun pool -> Array.iter (fun (p : Lcws_pbbs.Suite_types.prepared) -> S.Pool.run pool p.run) prepared);
  let next_check = Array.make nv 0 in
  let rec w =
    {
      name = "apps";
      pooled = true;
      s = samples ~parts:nc ();
      parts = app_names;
      slices_per_pass = 1;
      slice =
        (fun spans v ->
          let runs = Array.make nc [] in
          with_pool spans ctx w.s v (fun pool ->
              for _ = 1 to app_passes do
                Array.iteri
                  (fun c (p : Lcws_pbbs.Suite_types.prepared) ->
                    let ok, dt =
                      measured w.s v (fun () ->
                          try spanned_run spans pool ~layer:"pbbs" "run" p.run; true with _ -> false)
                    in
                    if not ok then Tally.record ctx.tally ~what:(app_names.(c) ^ ": run raised") false;
                    runs.(c) <- dt :: runs.(c))
                  prepared
              done);
          Array.iteri (fun c xs -> w.s.parts.(v).(c) <- Bstats.median xs :: w.s.parts.(v).(c)) runs;
          for _ = 1 to app_checks do
            let c = next_check.(v) in
            next_check.(v) <- (c + 1) mod nc;
            Span.with_ spans ~layer:"pbbs" "check" (fun _ ->
                ignore (app_check ctx.tally ~name:app_names.(c) prepared.(c)))
          done);
      model_sums = (fun () -> [||]);
    }
  in
  w

(* {1 sim: the simulator's paper policies} *)

let sim_scale = 0.05

let sim_ps = [ 2; 32 ]

let policies = Array.of_list E.paper_policies

(* A slice runs one model at every P under policy [v]; the models take
   turns, so the slices of one policy are spread over the whole run. *)
let sim ?(spans = Span.off) ctx =
  let comps =
    Array.of_list
      (List.map
         (fun (c : Lcws_sim.Workloads.config) ->
           let comp = Span.with_ spans ~layer:"sim" "build" (fun _ -> c.build ~scale:sim_scale) in
           (c.bench ^ "." ^ c.instance, comp, Lcws_sim.Comp.total_work comp))
         Lcws_sim.Workloads.all)
  in
  let nm = Array.length comps in
  let seed = Int64.of_int ctx.seed in
  let machine = Lcws_sim.Cost_model.amd32 in
  if nm > 0 then begin
    let _, comp, _ = comps.(0) in
    Array.iter (fun policy -> ignore (E.run ~machine ~policy ~p:2 ~seed comp)) policies
  end;
  (* Later runs of a model must reproduce its first sums: the simulator
     is deterministic. *)
  let first = Array.make_matrix nv nm None in
  let next = Array.make nv 0 in
  let rec w =
    {
      name = "sim";
      pooled = false;
      s = samples ~parts:nm ();
      parts = Array.map (fun (name, _, _) -> name) comps;
      slices_per_pass = nm;
      slice =
        (fun spans v ->
          let policy = policies.(v) and c = next.(v) in
          next.(v) <- (c + 1) mod nm;
          let name, comp, total_work = comps.(c) in
          let makespan = ref 0 and fences = ref 0 and time = ref 0. in
          List.iter
            (fun p ->
              let st, dt =
                measured w.s v (fun () ->
                    Span.with_ spans ~layer:"sim" "Engine.run" (fun _ ->
                        try Some (E.run ~machine ~policy ~p ~seed comp) with _ -> None))
              in
              time := !time +. dt;
              match st with
              | Some st ->
                  makespan := !makespan + st.E.makespan;
                  fences := !fences + st.E.fences;
                  Tally.record ctx.tally ~what:(name ^ ": total_work differs") (st.E.total_work = total_work)
              | None -> Tally.record ctx.tally ~what:(name ^ ": Engine.run raised") false)
            sim_ps;
          w.s.parts.(v).(c) <- !time :: w.s.parts.(v).(c);
          match first.(v).(c) with
          | None -> first.(v).(c) <- Some (!makespan, !fences)
          | Some sums ->
              Tally.record ctx.tally ~what:(name ^ ": a run did not reproduce the first") (sums = (!makespan, !fences)));
      model_sums =
        (fun () ->
          Array.map
            (fun row ->
              Array.fold_left
                (fun acc x ->
                  match (acc, x) with
                  | Some (m, f), Some (m', f') -> Some (m + m', f + f')
                  | _ -> None)
                (Some (0, 0)) row)
            first);
    }
  in
  w
