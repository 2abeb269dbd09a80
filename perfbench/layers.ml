(* Layer probes for the traced run: the deques called directly, the
   scheduler's primitives on fresh pools, and the Parlay primitives on
   apps-sized arrays. Each returns per-layer metrics as
   [(name, unit, value)]; every result a probe computes is checked into
   the tally. *)

module S = Lcws_sched.Scheduler
module M = Lcws_sync.Metrics
module D = Lcws_deque.Deque_intf
module Split = Lcws_deque.Split_deque
module Cl = Lcws_deque.Chase_lev
module P = Lcws_parlay.Seq_ops

let reps = 7

(* Median over [reps] timed calls of [f], in nanoseconds per [per]. *)
let median_ns ~per f =
  Bstats.median
    (List.init reps (fun _ ->
         let _, dt = Clock.time f in
         dt *. 1e9 /. float_of_int per))

(* Sized to [fib]'s fork count: one fork per fib call with n >= 2. *)
let deque_ops = Workloads.sfib (Workloads.fib_n + 1) - 1

(* A deque seen through the two round trips the probes time. *)
type deque = {
  dname : string;
  push : int -> unit;
  pop : unit -> int option;
  expose_steal : unit -> int D.steal_result; (* expose one task, then steal it *)
  clear : unit -> unit; (* steals only advance the indices; reset them *)
  metrics : M.t;
}

let split () =
  let metrics = M.create () in
  let d = Split.create ~capacity:(deque_ops + 1) ~dummy:0 ~metrics () in
  {
    dname = "split";
    push = Split.push_bottom d;
    pop = (fun () -> Split.pop_bottom d);
    expose_steal =
      (fun () ->
        ignore (Split.update_public_bottom d ~policy:D.Expose_one);
        Split.pop_top d ~metrics);
    clear = (fun () -> Split.clear d);
    metrics;
  }

let chase_lev () =
  let metrics = M.create () in
  let d = Cl.create ~capacity:(deque_ops + 1) ~dummy:0 ~metrics () in
  {
    dname = "chase_lev";
    push = Cl.push_bottom d;
    pop = (fun () -> Cl.pop_bottom d);
    expose_steal = (fun () -> Cl.steal d ~metrics);
    clear = (fun () -> Cl.clear d);
    metrics;
  }

let deque_probe tally spans d =
  let n = deque_ops in
  let ok = ref true in
  let push_pop () =
    for i = 1 to n do
      d.push i;
      if d.pop () <> Some i then ok := false
    done
  in
  let steal () =
    for i = 1 to n do
      d.push i;
      match d.expose_steal () with D.Stolen j when j = i -> () | _ -> ok := false
    done;
    d.clear ()
  in
  (* One counted pass of each (the counts are exact), then the timed
     repetitions. *)
  push_pop ();
  steal ();
  let fences = d.metrics.fences and cas = d.metrics.cas_ops in
  let timed f = Span.with_ spans ~layer:"deque" d.dname (fun _ -> median_ns ~per:n f) in
  let push_pop_ns = timed push_pop in
  let steal_ns = timed steal in
  Tally.record tally ~what:(d.dname ^ ": deque returned the wrong task") !ok;
  let per_op x = float_of_int x /. float_of_int (2 * n) in
  ( push_pop_ns,
    [
      ("deque.push_pop_ns." ^ d.dname, "ns", push_pop_ns);
      ("deque.steal_ns." ^ d.dname, "ns", steal_ns);
      ("deque.fences_per_op." ^ d.dname, "1/op", per_op fences);
      ("deque.cas_per_op." ^ d.dname, "1/op", per_op cas);
    ] )

let noop () = ()

(* The scheduler's primitives, per variant: an un-stolen fork/join chain
   and a spawn/await chain at P=1, and an empty [Pool.run] on a pool
   whose helpers have parked. [pair_ns] is the push/pop cost of each
   variant's deque, for the frame-overhead subtraction. *)
let sched_probe tally spans ~seed ~nproc ~pair_ns variant =
  let v = S.variant_name variant in
  let seed = Int64.of_int seed in
  let n = deque_ops in
  let one = S.Pool.create ~seed ~num_workers:1 ~variant () in
  let fork_join_ns, spawn_await_ns =
    Fun.protect
      ~finally:(fun () -> S.Pool.shutdown one)
      (fun () ->
        let run name f = Workloads.spanned_run spans one ~layer:"sched" name f in
        let fj () = run "fork_join" (fun () -> for _ = 1 to n do S.Ops.fork_join_unit noop noop done) in
        let spawns = n / 8 in
        let sa () =
          let sum =
            run "spawn_await" (fun () ->
                let acc = ref 0 in
                for i = 1 to spawns do
                  acc := !acc + S.Future.await (S.Future.spawn (fun () -> i))
                done;
                !acc)
          in
          Tally.record tally ~what:(v ^ ": spawn/await sum") (sum = spawns * (spawns + 1) / 2)
        in
        fj ();
        sa ();
        (median_ns ~per:n fj, median_ns ~per:spawns sa))
  in
  let pool = S.Pool.create ~seed ~num_workers:nproc ~variant () in
  let roundtrip_us =
    Fun.protect
      ~finally:(fun () -> S.Pool.shutdown pool)
      (fun () ->
        Bstats.median
          (List.init 100 (fun _ ->
               (* Between jobs the helpers park; give them the time to. *)
               Unix.sleepf 0.0005;
               let _, dt = Clock.time (fun () -> Workloads.spanned_run spans pool ~layer:"sched" "empty" noop) in
               dt *. 1e6)))
  in
  let pair = if variant = S.Ws then pair_ns.(1) else pair_ns.(0) in
  [
    ("sched.fork_join_ns." ^ v, "ns", fork_join_ns);
    ("sched.frame_overhead_ns." ^ v, "ns", fork_join_ns -. pair);
    ("sched.spawn_await_ns." ^ v, "ns", spawn_await_ns);
    ("sched.run_roundtrip_us." ^ v, "us", roundtrip_us);
  ]

(* Apps-sized: integerSort's input length at the apps scale. *)
let parlay_n = Lcws_pbbs.Suite_types.scaled ~scale:Workloads.apps_scale 200_000

let parlay_probe tally spans ~seed ~nproc variant =
  let v = S.variant_name variant in
  let st = Random.State.make [| seed |] in
  let a = Array.init parlay_n (fun _ -> Random.State.int st 1_000_000) in
  let sum = Array.fold_left ( + ) 0 a in
  let evens = Array.fold_left (fun acc x -> if x land 1 = 0 then acc + 1 else acc) 0 a in
  let pool = S.Pool.create ~seed:(Int64.of_int seed) ~num_workers:nproc ~variant () in
  Fun.protect
    ~finally:(fun () -> S.Pool.shutdown pool)
    (fun () ->
      let probe name f check =
        let call () = Workloads.spanned_run spans pool ~layer:"parlay" name f in
        Tally.check tally ~what:(Printf.sprintf "parlay %s on %s" name v) (fun () -> check (call ())) |> ignore;
        (Printf.sprintf "parlay.%s_ns_per_elem.%s" name v, "ns/elem", median_ns ~per:parlay_n (fun () -> ignore (call ())))
      in
      [
        probe "reduce" (fun () -> P.reduce ( + ) 0 a) (fun s -> s = sum);
        probe "scan" (fun () -> P.scan ( + ) 0 a) (fun (pre, total) ->
            total = sum && pre.(parlay_n - 1) + a.(parlay_n - 1) = total);
        probe "filter" (fun () -> P.filter (fun x -> x land 1 = 0) a) (fun r -> Array.length r = evens);
        probe "sort" (fun () -> Lcws_parlay.Sort.merge_sort compare a) (fun r ->
            Array.length r = parlay_n && Lcws_parlay.Sort.is_sorted compare r);
      ])

let all tally spans ~seed ~nproc =
  let split_pair, split_m = deque_probe tally spans (split ()) in
  let cl_pair, cl_m = deque_probe tally spans (chase_lev ()) in
  let pair_ns = [| split_pair; cl_pair |] in
  split_m @ cl_m
  @ List.concat_map (sched_probe tally spans ~seed ~nproc ~pair_ns) S.all_variants
  @ List.concat_map (parlay_probe tally spans ~seed ~nproc) [ S.Ws; S.Signal ]
