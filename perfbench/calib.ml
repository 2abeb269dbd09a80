(* Host-speed calibration.

   The shared host this benchmark was written on changes speed by up to
   a third over tens of seconds, with no hypervisor steal to show for it
   and with CPU time tracking wall time: identical single-threaded work
   took 14.5 ms in one stretch and 24 ms a minute later. Medians within a
   run cannot remove that, since a whole run can fall in a slow stretch.

   So a fixed reference kernel, which calls none of the repository's
   code, is timed right before every slice and every set-up, and the
   times measured there are scaled by [reference_s] over the median of
   the latest kernel times: they are reported as seconds on a host that
   runs the kernel in [reference_s]. A change to the repository's code
   moves the scaled times as it moves the raw ones; a change of host
   speed moves the kernel too and cancels out. The run's median kernel
   time is printed beside the results, so raw seconds are about the
   scaled ones times [median / reference_s]. *)

(* About either kernel's time on one domain of the 2-core host this
   benchmark was written on, in a quiet stretch; on two domains the
   mixed kernel takes 1.3-1.6 ms there. *)
let reference_s = 1.0e-3

let rec fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)

(* A cyclic permutation of [walk_len] slots (Sattolo), fixed: a chase
   along it misses the first-level cache as the workloads' arrays do. *)
let walk_len = 1 lsl 15

let walk =
  let a = Array.init walk_len Fun.id in
  let st = Random.State.make [| 17 |] in
  for i = walk_len - 1 downto 1 do
    let j = Random.State.int st i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Two kernels, for two kinds of work. Each scales best the work it
   resembles: over ten runs of fib, the mixed kernel moved with the host
   by 0.11 (IQR/median) while fib's raw time moved by 0.06, so scaling
   by it left 0.08; the compute kernel moved by 0.03 and left 0.04. *)
type kind =
  | Compute  (** calls and arithmetic in cache, as fib's jobs *)
  | Mixed  (** calls, a pointer chase and allocation, as the simulator and the applications *)

let compute () = Sys.opaque_identity (fib 26)

(* Calls and arithmetic, a pointer chase, and short-lived allocation,
   in roughly equal parts. *)
let mixed () =
  let x = fib 20 in
  let i = ref 0 in
  for _ = 1 to walk_len do
    i := walk.(!i)
  done;
  let l = List.init 20_000 (fun k -> (k, k + x)) in
  Sys.opaque_identity (List.fold_left (fun acc (a, b) -> acc + a + b) !i l)

let reps = 3

(* The kernel the workload's times are scaled by. *)
let kind = ref Mixed

let kernel () = match !kind with Compute -> compute () | Mixed -> mixed ()

(* Domains that run the kernel at once: the workload's own. A pooled
   workload runs on every core, and one core of the host can be slowed
   while the other is not, so its kernel runs on as many domains, each
   repetition timed until the last of them is done. *)
let domains = ref 1

(* Every kernel time measured in this run, newest first. *)
let seen = ref []

(* Time [reps] repetitions of the kernel on [n] domains at once: the
   helpers are spawned, report ready, and then start each repetition
   when the main domain does. *)
let timed_reps n =
  let ready = Atomic.make 0 and go = Atomic.make 0 and finished = Atomic.make 0 in
  let helper () =
    Atomic.incr ready;
    for r = 1 to reps do
      while Atomic.get go < r do
        Domain.cpu_relax ()
      done;
      ignore (kernel ());
      Atomic.incr finished
    done
  in
  let helpers = List.init (n - 1) (fun _ -> Domain.spawn helper) in
  while Atomic.get ready < n - 1 do
    Domain.cpu_relax ()
  done;
  let times =
    List.init reps (fun i ->
        let t0 = Clock.now () in
        Atomic.set go (i + 1);
        ignore (kernel ());
        while Atomic.get finished < (i + 1) * (n - 1) do
          Domain.cpu_relax ()
        done;
        Clock.now () -. t0)
  in
  List.iter Domain.join helpers;
  times

(* The median of [reps] kernel runs: one stall inside the calibration
   does not move it. *)
let measure () =
  let m = Bstats.median (timed_reps !domains) in
  seen := m :: !seen;
  m

(* Calibrations the scale is the median of. The kernel's own time jumps
   by a fifth from one calibration to the next, with the cache state a
   slice leaves behind, while the host's speed drifts over seconds; the
   median of the last few follows the drift without the jumps. *)
let window = 9

let rec take n = function x :: l when n > 0 -> x :: take (n - 1) l | _ -> []

(* The scale for times measured next: calibrate now. *)
let factor = ref 1.

(* The latest calibrations with the current kernel and number of
   domains, newest first. *)
let recent = ref []

let recent_setting = ref (Mixed, 0)

let recalibrate () =
  if (!kind, !domains) <> !recent_setting then begin
    recent := [];
    recent_setting := (!kind, !domains)
  end;
  recent := take window (measure () :: !recent);
  factor := reference_s /. Bstats.median !recent

let scaled dt = dt *. !factor
