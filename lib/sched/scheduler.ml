module Metrics = Lcws_sync.Metrics
module Xoshiro = Lcws_sync.Xoshiro
module Backoff = Lcws_sync.Backoff
module Padding = Lcws_sync.Padding
module Victim_policy = Lcws_sync.Victim_policy
module Trace = Lcws_trace.Trace
module Fault = Lcws_fault.Fault
open Lcws_deque.Deque_intf

exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Lcws.Scheduler.Cancelled"
    | _ -> None)

type variant = Ws | Uslcws | Signal | Cons | Half

let all_variants = [ Ws; Uslcws; Signal; Cons; Half ]

let lcws_variants = [ Uslcws; Signal; Cons; Half ]

let variant_name = function
  | Ws -> "ws"
  | Uslcws -> "uslcws"
  | Signal -> "signal"
  | Cons -> "cons"
  | Half -> "half"

let variant_label = function
  | Ws -> "WS"
  | Uslcws -> "User"
  | Signal -> "Signal"
  | Cons -> "Cons"
  | Half -> "Half"

let variant_of_string s =
  match String.lowercase_ascii s with
  | "ws" -> Some Ws
  | "uslcws" | "user" -> Some Uslcws
  | "signal" -> Some Signal
  | "cons" | "conservative" -> Some Cons
  | "half" -> Some Half
  | _ -> None

type task = unit -> unit

let dummy_task : task = fun () -> ()

(* The deque implementations, instantiated at [task] and packed as
   first-class modules: the scheduler is generic over the DEQUE signature
   and never matches on a concrete representation. *)

module Chase_lev_deque = Lcws_deque.Chase_lev.Deque (struct
  type t = task
end)

module Split_deque_deque = Lcws_deque.Split_deque.Deque (struct
  type t = task
end)

module Lace_deque_deque = Lcws_deque.Lace_deque.Deque (struct
  type t = task
end)

module Private_deque_deque = Lcws_deque.Private_deque.Deque (struct
  type t = task
end)

type deque_impl = task impl

let chase_lev_impl : deque_impl = (module Chase_lev_deque)

let split_deque_impl : deque_impl = (module Split_deque_deque)

let lace_impl : deque_impl = (module Lace_deque_deque)

let private_impl : deque_impl = (module Private_deque_deque)

let all_deque_impls = [ chase_lev_impl; split_deque_impl; lace_impl; private_impl ]

let deque_impl_name = impl_name

let deque_impl_of_string s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun i -> impl_name i = s) all_deque_impls

(* The paper's pairing: WS runs on Chase-Lev, every LCWS variant on the
   split deque. *)
let default_deque_impl = function
  | Ws -> chase_lev_impl
  | Uslcws | Signal | Cons | Half -> split_deque_impl

(* {2 Join frames}

   One [fork_join] needs a result slot and a completion word for its
   child. Allocating them per call (plus a closure to tie them
   together) puts heap traffic and write barriers on the hot path of
   every fork — exactly the per-fork overhead the LCWS design is meant
   to avoid paying. Instead each worker keeps a LIFO pool of reusable
   frames:

   - [fn] holds the child closure for this use of the frame, [g]
     itself ([Obj.t] so one frame serves every result type: it is run
     at [unit -> Obj.t], and the callers re-type the result with the
     locally-abstract types of their [fork_join]);
   - [task] is a trampoline closure allocated once per frame, pushed on
     the deque in place of a per-call closure; a thief that steals it
     runs the frame's current [fn] and publishes into the frame;
   - [state]/[result] are only ever touched on the stolen path: the
     un-stolen fast path pops [task] straight back (identity test
     against the frame) and runs [fn] inline with plain accesses only.

   Frame discipline is strictly LIFO per worker: nested forks — and
   tasks run while helping, which fork in turn — acquire above and
   release before their parent does, so acquire/release is a pointer
   bump. A frame is recycled only after its child's outcome has been
   consumed, which the stolen path orders through the SC [state] flag
   ([lib/check]'s frame scenarios explore exactly this protocol,
   including a seeded recycled-too-early mutant). [state] sits in its
   own cache line so a thief's completion store does not collide with
   neighbouring frames of the victim's pool. *)

(* The cells and the publish/consume ordering live in
   [Sched_protocol.Frame] — written against the [Atomic_shim] swap
   point, so [lib/check/sched_model] explores the very same protocol
   code. This file keeps what is scheduler policy, not protocol: the
   per-worker LIFO pool, the trampoline wiring, metrics, tracing.

   The -opaque rule for the fork path: the default build compiles each
   library module -opaque, so no call into another module is inlined.
   The un-stolen fork/join path therefore calls externals and code of
   this file only. It touches [fn] with a single [Atomic_shim.read] or
   [write] on the [Frame] cell, probes the parked count with one
   [Atomic_shim.get] ([wake_owed]), and guards tracing with
   [pool.traced] instead of calling [Trace.enabled]. The deque's own
   [push_bottom]/[pop_bottom], reached through the first-class module,
   are the remaining indirect calls. *)

module Frame = Sched_protocol.Frame
module Scope = Sched_protocol.Scope
module Future_core = Sched_protocol.Future_core
module Injector = Sched_protocol.Injector
module Park = Sched_protocol.Park
module Policy_switch = Sched_protocol.Policy_switch
module Parking_lot = Lcws_sync.Parking_lot

type frame = task Frame.t

let unit_obj = Obj.repr ()

let initial_frames = 64

type worker = {
  id : int;
  metrics : Metrics.t;
  deque : task instance;
  targeted : bool Atomic.t;
  signal_pending : bool Atomic.t;
  rng : Xoshiro.t;
  vsel : Victim_policy.t;
      (* victim-selection state (policy, topology distances, failure
         streak, affinity hint); owns every draw from [rng] on the steal
         path *)
  steal_buf : task array;
      (* scratch for [steal_many]'s extra tasks (beyond the one the
         thief keeps); length [steal_batch - 1], reused on every steal
         so the batch path allocates nothing *)
  backoff : Backoff.t;
  pswitch : Policy_switch.t;
      (* epoch-stamped exposure-policy word pair
         ([Sched_protocol.Policy_switch]): the governor proposes into
         it, this worker acks at its poll points, thieves route their
         exposure requests by it. Only consulted on adaptive pools. *)
  mutable polls : int;
      (* owner poll points since the last governor sample attempt
         (adaptive pools only; plain field, owner-written) *)
  mutable frames : frame array; (* the worker's LIFO frame pool... *)
  mutable frame_top : int; (* ...and its stack pointer *)
  mutable sched_depth : int;
      (* how many scheduler frames (fork_join branches, join-frame
         children, loop chunks) the worker is currently executing
         inside. A fiber may only capture its continuation at depth 0:
         anything deeper closes over worker-local state — the LIFO
         frame pool, the loop scope — that cannot migrate to another
         domain. Saved and reset to 0 around every task a worker runs,
         because each task starts a fresh delimited computation. *)
  mutable fscope : bool Atomic.t;
      (* cancellation flag of the fiber currently executing on this
         worker ([no_fscope] when the current task has none). Installed
         by the fiber's task body, restored by [run_task]'s bracket when
         the step ends — whether by completing or by suspending. *)
  docked : bool Atomic.t;
      (* the helper is in its between-jobs idle ([idle_between_jobs]),
         where it writes no counter; [quiesce] waits for every helper to
         get here *)
}

(* An externally submitted item: the task to run, and what to do with it
   if the pool shuts down before any worker drained it (complete the
   attached future with [Cancelled] so external awaiters never hang). *)
type injected = { ij_run : task; ij_abort : unit -> unit }

(* The adaptive pool's governor: decision state plus the claim flag
   that elects one worker per epoch to sample and propose. The decision
   state is single-writer under [g_lock]; the counters it samples are
   other workers' plain metric fields, read racily — the governor is a
   heuristic, approximate sums are fine (same stance as tracing). *)
type gov = {
  g_state : Policy_governor.t;
  g_lock : bool Atomic.t;
  g_epoch : int; (* owner poll points between sample attempts *)
}

type pool = {
  pvariant : variant;
  nw : int;
  steal_limit : int;
      (* max tasks one steal episode may migrate ([Pool.create]'s
         [steal_batch]; 1 = classical steal-one) *)
  workers : worker array;
  mutable domains : unit Domain.t list;
  job_active : bool Atomic.t;
  stop : bool Atomic.t;
  mutex : Mutex.t;
  cond : Condition.t;
      (* [mutex]/[cond] serialize the driver-seat handshake only
         (external awaiters waiting out [running]); worker idling — both
         in-job and between jobs — goes through [lot]/[park] below *)
  running : bool Atomic.t;
  ext_driver : bool Atomic.t;
      (* the current holder of [running] is an external awaiter
         transiently driving worker 0 ([Future.block_on_pool]), not a
         [Pool.run] job: [run] waits the seat out instead of refusing *)
  trace : Trace.t;
  traced : bool;
      (* [Trace.enabled trace], cached as a plain immutable field: the
         library is compiled [-opaque] in the default build, so every
         [Trace.enabled] guard would be a cross-module call on the
         fork/join fast path, where this is one load and a branch *)
  fault : Fault.t;
  fault_on : bool; (* [Fault.active fault], cached as a plain immutable
                      field so every hook guard is one predictable load
                      and branch (same discipline as [traced]) *)
  cancel_requested : bool Atomic.t; (* cancel the in-flight job; set by
                                       [Pool.cancel], [Pool.shutdown] and
                                       the fault layer, cleared at the
                                       start of the next [Pool.run] *)
  injector : injected Injector.t;
      (* external-submission queue ([Sched_protocol.Injector]: one
         atomic cell holding a functional queue plus a closed flag),
         drained at the workers' steal points; [is_empty] is one atomic
         load so an idle probe costs nothing measurable *)
  service : int Atomic.t;
      (* externally submitted futures not yet completed. Helpers serve
         the pool while a job is active OR this is non-zero, so
         [Pool.submit] works between [Pool.run]s too. *)
  park : Park.t;
      (* the parked-count word and wake generation
         ([Sched_protocol.Park]): the word-level half of worker parking,
         loaded once — and nothing else — by every doorbell site when
         nobody is parked *)
  lot : Parking_lot.t;
      (* the condvar dock parked workers actually sleep on; generation
         bumps happen under its mutex (see [Parking_lot]'s pairing
         contract) *)
  searchers : int Atomic.t;
      (* workers in their post-wake search window (woken from the lot,
         classification re-check still running). [ring_one] skips the
         wake while this is non-zero — the searcher is already sweeping
         every victim and the injector, so waking a second parker per
         published task just burns a mutex+signal on the publisher and
         a futile wake/re-park cycle on the parker. See the safety note
         on [ring_one]. *)
  adaptive : bool;
      (* [governor] is present; cached as a plain immutable bool so the
         per-poll and per-notify guards are one predictable load and
         branch (same discipline as [fault_on] and [traced]) *)
  governor : gov option;
}

let ctx_key : (pool * worker) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* {2 Doorbells}

   Every site that makes work (or a state change a parked worker must
   observe) available rings one of these. The fast path is the single
   load of [Park]'s parked count ([wake_owed]): with nobody parked a
   ring is that load and a not-taken branch, so the owner's push path
   pays no synchronization for the parking machinery. The load is
   written as a direct [Atomic_shim.get] on the protocol's cell — an
   [external], so it inlines even under [-opaque] — rather than a call
   into [Sched_protocol]. When somebody *is*
   parked, the ring bumps the wake generation under the dock mutex and
   signals — see [Sched_protocol.Park] for the lost-wakeup argument.

   [ring_one] is for a single ready task any worker may serve (a push,
   an external submission, one exposed task). [ring_all] is mandatory
   whenever the intended observer is a *specific* parked worker — a
   frame completion (its owner may be the parked one), a root-fiber
   outcome, a resume flag, shutdown: [Condition.signal] wakes an
   arbitrary sleeper, and a generation bump alone does not wake anyone,
   so a targeted wake delivered as a signal could be absorbed by a
   bystander that just re-parks while the worker that needed it sleeps
   on.

   [ring_one] additionally throttles on [searchers]: while some woken
   worker is still in its post-wake re-check, publishing another single
   task does not wake a second parker. Without this, a busy owner with
   a parked peer pays the dock mutex + signal on *every* push (3x on
   the fork/join chain microbench) while the peer cycles
   wake/steal-nothing/re-park at the same rate. Skipping is safe — no
   lost wakeup — because the searcher observed in the count must, after
   decrementing, either (a) acquire work and then keep running its
   acquisition loop, whose park entry only blocks after a full failed
   sweep, i.e. after it would have found this task; or (b) find nothing
   and re-enter [Park.park]'s announce -> re-check, which runs after
   our publish (publish < searchers load < its decrement < its
   announce, at SC) and therefore sees the task. Either way the
   published task is served or the final pre-block re-check catches it;
   the throttle only elides wakes that would have been spurious.
   [ring_all] is never throttled. *)
let wake_owed pool = Atomic_shim.get pool.park.Park.parked > 0

let ring_one pool =
  if Atomic.get pool.searchers = 0 && wake_owed pool then
    Parking_lot.wake pool.lot ~all:false ~bump:(fun () -> Park.bump pool.park)

let ring_all pool =
  if wake_owed pool then
    Parking_lot.wake pool.lot ~all:true ~bump:(fun () -> Park.bump pool.park)

let request_cancel pool =
  if not (Atomic.get pool.cancel_requested) then begin
    Atomic.set pool.cancel_requested true;
    (* Parked workers have nothing to unwind, but waking them narrows
       the window in which a cancellation must wait for task-level
       unwinding to ring the completion doorbells. *)
    ring_all pool
  end

let record_fault pool w code =
  let tr = pool.trace in
  if pool.traced then Trace.record_fault tr ~worker:w.id ~time:(Trace.now tr) ~code

(* One fault-layer poll point; [true] means this poll is stalled and the
   caller must skip its signal handling. Only reached when
   [pool.fault_on]. *)
let fault_poll pool w =
  match Fault.poll pool.fault ~worker:w.id ~metrics:w.metrics with
  | Fault.Pass -> false
  | Fault.Stalled ->
      record_fault pool w Fault.code_stall;
      (* Burn a timeslice-ish amount of nothing: long enough for thieves
         to observe an unresponsive victim, short enough to keep chaos
         runs fast. *)
      for _ = 1 to 64 do
        Domain.cpu_relax ()
      done;
      true
  | Fault.Cancel_job ->
      record_fault pool w Fault.code_cancel;
      request_cancel pool;
      false

(* {2 Frame execution}

   [exec_frame] runs on whoever took the frame's task — the stolen path.
   The result write must be visible before the flag flip; [Atomic.set]
   is an SC store, so the owner's read of [state] orders the read of
   [result]. An exception — the child's own, an injected one, or
   [Cancelled] — is published through the same flag ([frame_exn]), so a
   failing child still completes its frame and the owner's join can
   never hang on it.

   This is also the stolen path's cancellation and injection point: the
   context lookup only happens here (never on the un-stolen inline
   path), so the fork/join fast path stays free of it. *)
let exec_frame fr =
  let ctx = Domain.DLS.get ctx_key in
  let run () =
    (match ctx with
    | Some (pool, w) ->
        if Atomic.get pool.cancel_requested then raise Cancelled;
        if pool.fault_on then begin
          match Fault.inject_now pool.fault ~worker:w.id ~metrics:w.metrics with
          | Some (iw, k) ->
              record_fault pool w Fault.code_inject;
              raise (Fault.Injected (iw, k))
          | None -> ()
        end
    | None -> ());
    (* The child runs at scheduler depth: a continuation captured under
       it would close over this worker's frame pool, so [Suspend] is
       refused (and [Future.await] helps instead of parking) until the
       child returns. *)
    (match ctx with Some (_, w) -> w.sched_depth <- w.sched_depth + 1 | None -> ());
    let leave () =
      match ctx with Some (_, w) -> w.sched_depth <- w.sched_depth - 1 | None -> ()
    in
    match (Obj.obj (Atomic_shim.read fr.Frame.fn) : unit -> Obj.t) () with
    | v ->
        leave ();
        v
    | exception e ->
        leave ();
        raise e
  in
  (* The frame's owner may be parked in [join_frame_stolen]: after the
     completion flag flips, ring — all, because the wake must reach that
     specific owner, not whichever sleeper a signal would pick. *)
  match run () with
  | v ->
      Frame.publish_value fr v;
      (match ctx with Some (pool, _) -> ring_all pool | None -> ())
  | exception e ->
      (match ctx with
      | Some (pool, w) ->
          w.metrics.task_exns <- w.metrics.task_exns + 1;
          let tr = pool.trace in
          if pool.traced then Trace.record_task_exn tr ~worker:w.id ~time:(Trace.now tr)
      | None -> ());
      Frame.publish_exn fr e;
      (match ctx with Some (pool, _) -> ring_all pool | None -> ())

let make_frame () =
  let fr = Frame.make ~task:dummy_task () in
  fr.Frame.task <- (fun () -> exec_frame fr);
  fr

let acquire_frame w =
  let top = w.frame_top in
  if top = Array.length w.frames then begin
    (* Double the pool. Existing frames keep their identity — each is
       aliased by its own trampoline and possibly live in the deque. *)
    let n = Array.length w.frames in
    w.frames <- Array.init (2 * n) (fun i -> if i < n then w.frames.(i) else make_frame ())
  end;
  let fr = w.frames.(top) in
  w.frame_top <- top + 1;
  fr

(* Only legal once the frame's child outcome has been consumed (or the
   push that would have exposed it failed): the caller guarantees no
   thief can still touch [fr]. Drops the child so a pooled frame does not
   keep it alive; [result] is only ever written on the stolen path, so
   [join_frame_stolen] clears it there and the fast path skips the
   store. *)
let release_frame w fr =
  Atomic_shim.write fr.Frame.fn unit_obj;
  let top = w.frame_top - 1 in
  assert (w.frames.(top) == fr);
  w.frame_top <- top

let exposure_policy = function
  | Uslcws | Signal -> Expose_one
  | Cons -> Expose_conservative
  | Half -> Expose_half
  | Ws -> assert false

(* The variant an adaptive worker runs while its policy word says
   handshake: the pool's own signal discipline, or [Signal] when the
   pool was created as [Uslcws] (which has no handshake of its own). *)
let handshake_variant pool =
  match pool.pvariant with Uslcws | Ws -> Signal | (Signal | Cons | Half) as v -> v

(* The exposure discipline worker [w] runs right now. Static pools
   answer from the immutable variant; adaptive pools read the worker's
   policy word ([Policy_switch.active_mode] — one atomic load). Each
   worker's word only moves at its own poll points, so within one
   owner-side operation the answer is stable; thief-side readers
   (e.g. [notify]) must instead go through the fenced
   [Policy_switch.request]. *)
let wvariant pool w =
  if not pool.adaptive then pool.pvariant
  else if Policy_switch.active_mode w.pswitch = Policy_switch.unsync then Uslcws
  else handshake_variant pool

(* Cheap conditional reset: the [Atomic.get] is a plain load; the SC store
   only happens when a thief actually targeted us. *)
let reset_targeted w = if Atomic.get w.targeted then Atomic.set w.targeted false

(* The body of the paper's signal handler (Listing 3): transfer work to
   the public part of the split deque. Runs on the victim's own domain at
   poll points — our stand-in for in-handler execution (DESIGN.md §2.2).

   The fault layer intercepts here, at the protocol level rather than
   under the deque's atomics: a poll may be stalled (the victim behaves
   as if preempted), and a pending signal may be dropped — clearing
   [targeted] so thieves go through the Section 4 re-request path — or
   deferred to a later poll. When no plan is installed this adds exactly
   one load-and-branch on [fault_on]. *)
let handle_signal pool w =
  Atomic.set w.signal_pending false;
  let (Instance ((module D), d)) = w.deque in
  let n = D.update_public_bottom d ~policy:(exposure_policy (handshake_variant pool)) in
  w.metrics.signals_handled <- w.metrics.signals_handled + 1;
  let tr = pool.trace in
  if pool.traced then begin
    let time = Trace.now tr in
    Trace.record_signal_handled tr ~worker:w.id ~time;
    if n > 0 then Trace.record_expose tr ~worker:w.id ~time ~tasks:n
  end;
  (* Exposure doorbell: freshly public work may be what a parked thief
     (the one whose notify triggered this very exposure) is waiting
     for. One task wakes one thief; a batch ([Expose_half]) wakes
     everyone. *)
  if n > 0 then if n > 1 then ring_all pool else ring_one pool

(* Unsynchronized-discipline service of a [targeted] exposure request —
   at a task boundary (Listing 1 lines 8-12), or as the drain of an
   adaptive switch away from the unsync discipline. The caller has
   already consumed the [targeted] flag. *)
let serve_boundary_exposure pool w =
  let (Instance ((module D), d)) = w.deque in
  let n = D.update_public_bottom d ~policy:Expose_one in
  w.metrics.signals_handled <- w.metrics.signals_handled + 1;
  let tr = pool.trace in
  if pool.traced then begin
    let time = Trace.now tr in
    Trace.record_signal_handled tr ~worker:w.id ~time;
    if n > 0 then Trace.record_expose tr ~worker:w.id ~time ~tasks:n
  end;
  if n > 0 then ring_one pool (* exposure doorbell, as in [handle_signal] *)

(* One adaptive-governor poll tick: every [g_epoch] of this worker's
   poll points, try to claim the governor (one CAS; losing just means
   another worker is sampling this epoch), sample the pool-wide
   steal-pressure counters, and propose the resulting target mode to
   every worker's policy word. [Policy_switch.propose] refuses per
   worker while that worker's previous switch is unacked (or when the
   target is already its proposed mode), so repeated same-target epochs
   cost two loads per worker and no stores. *)
let governor_tick pool w g =
  w.polls <- w.polls + 1;
  if w.polls >= g.g_epoch then begin
    w.polls <- 0;
    if Atomic.compare_and_set g.g_lock false true then begin
      let attempts = ref 0 and tasks = ref 0 in
      Array.iter
        (fun u ->
          attempts := !attempts + u.metrics.steal_attempts;
          tasks := !tasks + u.metrics.tasks_run)
        pool.workers;
      let target =
        Policy_governor.sample g.g_state ~steal_attempts:!attempts ~tasks_run:!tasks
          ~parked:(Park.parked pool.park) ~num_workers:pool.nw
      in
      let mode = Policy_governor.switch_mode target in
      Array.iter (fun u -> ignore (Policy_switch.propose u.pswitch ~mode)) pool.workers;
      Atomic.set g.g_lock false
    end
  end

(* Adaptive owner poll point: acknowledge a proposed policy switch.
   [Policy_switch.adopt] flips the word first and then runs the drain,
   which serves a request already deposited on the superseded channel —
   the handshake channel is [signal_pending] (served by the full
   [handle_signal]), the unsync channel is [targeted] (served by an
   immediate boundary exposure). See [Sched_protocol.Policy_switch] for
   why flip-before-drain plus the thief-side fenced re-issue means no
   request ever strands across a switch. *)
let adopt_policy pool w =
  let switched =
    Policy_switch.adopt w.pswitch ~drain:(fun ~mode ->
        if mode = Policy_switch.handshake then begin
          if Atomic.get w.signal_pending then handle_signal pool w
        end
        else if Atomic.get w.targeted then begin
          Atomic.set w.targeted false;
          serve_boundary_exposure pool w
        end)
  in
  if switched then begin
    w.metrics.policy_switches <- w.metrics.policy_switches + 1;
    let tr = pool.trace in
    if pool.traced then
      Trace.record_policy_switch tr ~worker:w.id ~time:(Trace.now tr)
        ~mode:(Policy_switch.active_mode w.pswitch)
  end

let handle_pending pool w =
  let stalled = pool.fault_on && fault_poll pool w in
  if not stalled then begin
    (match pool.governor with
    | Some g ->
        governor_tick pool w g;
        adopt_policy pool w
    | None -> ());
    match wvariant pool w with
    | Signal | Cons | Half ->
        if Atomic.get w.signal_pending then
          if not pool.fault_on then handle_signal pool w
          else begin
            match Fault.on_signal pool.fault ~worker:w.id ~metrics:w.metrics with
            | Fault.Handle -> handle_signal pool w
            | Fault.Defer -> record_fault pool w Fault.code_delay_signal
            | Fault.Drop ->
                (* The request evaporates: pending cleared, [targeted]
                   reset so the thief's next probe may notify again. The
                   thief sees [Private_work] and re-requests — worst case
                   the victim drains its own deque privately, so progress
                   never depends on a dropped signal. *)
                Atomic.set w.signal_pending false;
                reset_targeted w;
                record_fault pool w Fault.code_drop_signal
          end
    | Ws | Uslcws -> ()
  end

let push_task pool w t =
  let (Instance ((module D), d)) = w.deque in
  D.push_bottom d t;
  (* Signal-based variants: a fresh push means there is (new) work that can
     be exposed, so thieves may notify again (Section 4). *)
  (match wvariant pool w with
  | Signal | Cons | Half -> reset_targeted w
  | Ws | Uslcws -> ());
  (* Push doorbell. On the split deques the pushed task lands in the
     private part, so a parked thief's sweep cannot take it yet and the
     ring looks premature — but it is load-bearing: the wake is what
     sends the thief back through its park re-check, whose probe of this
     victim re-arms the exposure request ([notify ~force:true]) that a
     stale [targeted] may have swallowed, and the resulting exposure's
     own doorbell closes the loop. Gating this ring on
     [D.public_size d > 0] deadlocks the signal variants whenever the
     only awake worker blocks before its next poll (the chaos
     future-DAG property catches it within seconds). With nobody parked
     the ring is [wake_owed]'s single load — the whole cost the
     fork hot path pays for the parking machinery. *)
  ring_one pool

(* Owner-side task lookup on the own deque: private part first, then the
   public part (Listing 1 lines 7-16). For the signal-safe [pop_bottom] of
   Section 4, a [None] from the private part *must* fall through to
   [pop_public_bottom], which repairs the decremented [bot]. *)
let pop_own pool w =
  let (Instance ((module D), d)) = w.deque in
  (* On an adaptive pool the discipline is the worker's *current* policy
     word, read once per pop: the word only moves at this worker's own
     poll points, and each pop call is internally consistent under
     either discipline, so switching between calls is safe. *)
  let wv = wvariant pool w in
  let private_task =
    match wv with
    | Signal | Half -> D.pop_bottom_signal_safe d
    | Ws | Uslcws | Cons -> D.pop_bottom d
  in
  match private_task with
  | Some _ as r ->
      (* USLCWS handles exposure requests at task boundaries only
         (Listing 1 lines 8-12). *)
      (match wv with
      | Uslcws ->
          if Atomic.get w.targeted then begin
            Atomic.set w.targeted false;
            serve_boundary_exposure pool w
          end
      | Ws | Signal | Cons | Half -> ());
      r
  | None -> (
      match D.pop_public_bottom d with
      | Some _ as r ->
          (* A public task was consumed: previously shared work is no
             longer accessible, allow new notifications. *)
          reset_targeted w;
          let tr = pool.trace in
          if pool.traced then
            Trace.record_pop_public tr ~worker:w.id ~time:(Trace.now tr);
          r
      | None ->
          (* Listing 1 line 17. *)
          reset_targeted w;
          None)

(* Thief-side notification policy (Listing 1 line 22 / Listing 3).

   [force] is the park-side re-arm: the signal variants normally gate a
   notify on [targeted] (one outstanding request per victim) and [Cons]
   additionally on [has_two_tasks]. Both gates are mere throttles for
   awake thieves, which retry anyway — but they are fatal to a thief
   about to park. A stale [targeted] (a thief preempted between its
   winning top-CAS and [reset_targeted], or an [Expose_one] whose task
   was consumed just before the flag reset) would swallow the parker's
   only exposure request, and with it the doorbell it needs to ever wake
   up. A parker therefore notifies unconditionally: re-arming
   [signal_pending] is idempotent, and the victim's next poll turns it
   into an exposure whose doorbell sees the already-announced parked
   count. *)
(* One exposure-request deposit on [victim]'s channel for [mode] — the
   unsync channel is the bare [targeted] flag, the handshake channel
   additionally raises [signal_pending] behind the per-variant throttle
   ([force] bypasses it; see [notify]). Returns whether a flag was
   actually raised. *)
let send_request ?(force = false) pool thief victim ~mode =
  if mode = Policy_switch.unsync then begin
    Atomic.set victim.targeted true;
    thief.metrics.signals_sent <- thief.metrics.signals_sent + 1;
    true
  end
  else
    match handshake_variant pool with
    | Cons ->
        let has_two =
          let (Instance ((module D), d)) = victim.deque in
          D.has_two_tasks d
        in
        if force || ((not (Atomic.get victim.targeted)) && has_two) then begin
          Atomic.set victim.targeted true;
          Atomic.set victim.signal_pending true;
          thief.metrics.signals_sent <- thief.metrics.signals_sent + 1;
          true
        end
        else false
    | Ws | Uslcws | Signal | Half ->
        if force || not (Atomic.get victim.targeted) then begin
          Atomic.set victim.targeted true;
          Atomic.set victim.signal_pending true;
          thief.metrics.signals_sent <- thief.metrics.signals_sent + 1;
          true
        end
        else false

let notify ?(force = false) pool thief victim =
  let notified =
    if pool.adaptive then begin
      (* Fenced against a concurrent policy switch
         ([Sched_protocol.Policy_switch]): deposit on the channel the
         victim's current word designates, re-read, re-issue if the
         word moved. The re-issue bypasses the one-outstanding-request
         throttle — our own first deposit would otherwise swallow it
         and strand the request on the dead channel. *)
      let sent = ref false in
      let resend = ref false in
      Policy_switch.request victim.pswitch ~send:(fun ~mode ->
          let f = force || !resend in
          resend := true;
          if send_request ~force:f pool thief victim ~mode then sent := true);
      !sent
    end
    else
      match pool.pvariant with
      | Ws -> false
      | Uslcws -> send_request pool thief victim ~mode:Policy_switch.unsync
      | Signal | Half | Cons ->
          send_request ~force pool thief victim ~mode:Policy_switch.handshake
  in
  if notified then begin
    let tr = pool.trace in
    if pool.traced then
      Trace.record_notify tr ~thief:thief.id ~victim:victim.id ~time:(Trace.now tr)
  end

(* [search_start] is the Idle_enter timestamp of the enclosing work
   search (-1 when tracing is off), for the steal-latency histogram. *)
let steal_once pool w ~search_start =
  if pool.nw < 2 then None
  else begin
    (* The victim is chosen *before* the fault veto rolls, so a vetoed
       probe consumes exactly the policy draw the real probe would have:
       replays with and without the fault layer observe the same probe
       sequence (Victim_policy's determinism contract). *)
    let victim_id = Victim_policy.next w.vsel in
    if pool.fault_on && Fault.steal_veto pool.fault ~thief:w.id ~metrics:w.metrics then begin
      (* A spurious failure, as if the top CAS lost a race. Vetoed
         before the deque counts a [steal_attempt], so the metrics
         balance checks stay exact; the policy records a failed probe so
         its escalation clock keeps ticking. *)
      Victim_policy.fail w.vsel;
      record_fault pool w Fault.code_steal_veto;
      None
    end
    else begin
      let v = pool.workers.(victim_id) in
      let (Instance ((module D), d)) = v.deque in
      let tr = pool.trace in
      if pool.traced then
        Trace.record_steal_attempt tr ~thief:w.id ~victim:victim_id ~time:(Trace.now tr);
      match D.steal_many d ~limit:pool.steal_limit ~into:w.steal_buf ~metrics:w.metrics with
      | Stolen t, extra ->
          (* The shared work is gone; future thieves may notify again. *)
          reset_targeted v;
          Victim_policy.success w.vsel ~victim:victim_id;
          let m = w.metrics in
          m.tasks_migrated <- m.tasks_migrated + 1 + extra;
          if Victim_policy.is_near w.vsel ~victim:victim_id then
            m.near_steals <- m.near_steals + 1
          else m.far_steals <- m.far_steals + 1;
          if extra > 0 then begin
            m.steals_batched <- m.steals_batched + 1;
            (* Bulk-publish the rest of the batch through the ordinary
               push protocol (exposure flags, doorbells), oldest first
               so relative victim order survives in our deque. *)
            for i = 0 to extra - 1 do
              push_task pool w w.steal_buf.(i);
              w.steal_buf.(i) <- dummy_task
            done
          end;
          if pool.traced then begin
            let time = Trace.now tr in
            Trace.record_steal_ok tr ~thief:w.id ~victim:victim_id ~time ~search_start;
            if extra > 0 then Trace.record_steal_batch tr ~thief:w.id ~time ~tasks:(1 + extra)
          end;
          Some t
      | Private_work, _ ->
          notify pool w v;
          Victim_policy.fail w.vsel;
          None
      | Empty, _ ->
          Victim_policy.fail w.vsel;
          if pool.traced then
            Trace.record_steal_empty tr ~thief:w.id ~victim:victim_id ~time:(Trace.now tr);
          None
      | Abort, _ ->
          Victim_policy.fail w.vsel;
          None
    end
  end

(* Enqueue an external entry — or, if the injector is already closed
   (shutdown's [close] won the race), abort it right here. The close is
   the linearization point: an entry is either drained by a worker,
   returned to [shutdown]'s abort sweep, or refused and aborted by its
   own submitter — never stranded between a stop check and a drain.

   The push is the publish; the doorbell after it is one load of the
   parked count, so the [Pool.submit] hot path no longer pays a mutex
   acquisition and a broadcast per message when every worker is busy
   (or when none is parked between jobs). *)
let inject pool entry =
  if Injector.push pool.injector entry then ring_one pool else entry.ij_abort ()

(* One steal-point probe of the external-submission queue. A drained
   task is pushed onto the drainer's own deque rather than run directly,
   so it flows through the ordinary push/pop/steal protocol (exposure
   signals, metrics balance, tracing) like any other task — the injector
   is a source of work, not a second scheduling regime.

   The [is_empty] fast path is fine *here*, where the caller keeps
   looping either way; a worker deciding whether it may park must not
   use it — see [park_recheck] below and the park-side invariant note on
   [Sched_protocol.Injector]. *)
let drain_injector pool w =
  if Injector.is_empty pool.injector then false
  else
    match Injector.pop pool.injector with
    | None -> false
    | Some entry ->
        w.metrics.submits <- w.metrics.submits + 1;
        let tr = pool.trace in
        if pool.traced then Trace.record_submit tr ~worker:w.id ~time:(Trace.now tr);
        push_task pool w entry.ij_run;
        true

(* {2 Parking}

   The park-side work re-check ([Sched_protocol.Park]'s [recheck]
   callback): runs between the parker's announce (parked-count
   increment) and its block, and again after every wake. Returns [true]
   iff blocking is not (or no longer) safe: the caller's own exit
   condition fired, the pool is stopping, or work was found.

   Work found here is *acquired*, never merely observed — a popped
   injector entry or a stolen task lands in [w]'s own deque (through the
   ordinary [push_task] protocol), making this worker responsible for it
   (see the park-side invariant on [Sched_protocol.Injector]). The steal
   sweep is deterministic over every victim — unlike the random probing
   of the backoff loop that precedes parking — and [notify ~force:true]s
   victims holding only private work, so the last awake thief cannot
   park while an un-exposed victim still computes: the forced notify
   (bypassing the [targeted] throttle, which a stale flag would
   otherwise turn into a fatal no-op — see [notify]) pins an exposure at
   the victim's next poll, and that exposure's doorbell sees our already
   announced parked count. The sweep deliberately skips the fault
   layer's steal veto: vetoes model lost races on contended steals, and
   applying one here would manufacture the very lost wakeup the protocol
   exists to rule out.

   The sweep also skips the worker's own deque — not because it cannot
   hold work (a previous round's re-check acquires into it), but
   because every caller's acquisition loop starts with [pop_own], so a
   worker provably never reaches a park attempt with a non-empty own
   deque. Breaking that caller discipline deadlocks: a task in a parked
   worker's private part is invisible to every thief, and the exposure
   signal thieves would send needs a poll the parked owner never
   runs.

   [search_start] is the start stamp of the search this sweep belongs
   to (-1 when tracing is off), as for [steal_once]: a steal taken here
   records its steal-latency sample like any other. *)
let park_recheck pool w ~done_ ~search_start =
  done_ ()
  || Atomic.get pool.stop
  || (match Injector.pop pool.injector with
     | Some entry ->
         w.metrics.submits <- w.metrics.submits + 1;
         let tr = pool.trace in
         if pool.traced then Trace.record_submit tr ~worker:w.id ~time:(Trace.now tr);
         push_task pool w entry.ij_run;
         true
     | None ->
         let tr = pool.trace in
         let traced = pool.traced in
         let found = ref false in
         let i = ref 0 in
         while (not !found) && !i < pool.nw do
           (if !i <> w.id then begin
              let v = pool.workers.(!i) in
              let (Instance ((module D), d)) = v.deque in
              if traced then
                Trace.record_steal_attempt tr ~thief:w.id ~victim:v.id ~time:(Trace.now tr);
              match D.steal_many d ~limit:pool.steal_limit ~into:w.steal_buf ~metrics:w.metrics
              with
              | Stolen t, extra ->
                  reset_targeted v;
                  let m = w.metrics in
                  m.tasks_migrated <- m.tasks_migrated + 1 + extra;
                  if Victim_policy.is_near w.vsel ~victim:v.id then
                    m.near_steals <- m.near_steals + 1
                  else m.far_steals <- m.far_steals + 1;
                  if extra > 0 then m.steals_batched <- m.steals_batched + 1;
                  if traced then begin
                    let time = Trace.now tr in
                    Trace.record_steal_ok tr ~thief:w.id ~victim:v.id ~time ~search_start;
                    if extra > 0 then
                      Trace.record_steal_batch tr ~thief:w.id ~time ~tasks:(1 + extra)
                  end;
                  (* The kept task is acquired, not run, here: it goes
                     through [push_task] like the extras so the caller's
                     [pop_own] finds everything on the own deque. *)
                  push_task pool w t;
                  for i = 0 to extra - 1 do
                    push_task pool w w.steal_buf.(i);
                    w.steal_buf.(i) <- dummy_task
                  done;
                  found := true
              | Private_work, _ -> notify ~force:true pool w v
              | Empty, _ ->
                  if traced then
                    Trace.record_steal_empty tr ~thief:w.id ~victim:v.id ~time:(Trace.now tr)
              | Abort, _ -> ()
            end);
           incr i
         done;
         !found)

(* Park [w] until a doorbell rings (or the re-check refuses the park).
   Returns [true] iff the worker actually blocked at least once — the
   caller should then re-stamp any in-flight steal-latency sample, and
   may find re-check-acquired work on its own deque.

   The announce → re-check → block sequence is
   [Sched_protocol.Park.park]; the dock it blocks on is the pool's
   [Parking_lot]. The park point is also a fault poll point: a plan may
   stall right here — stretching the window between the last failed
   sweep and the block, which is exactly where the seeded lost-wakeup
   replay test plants its stall — or fire its cancellation, in which
   case we skip this park and let the caller's loop observe it.

   Wake accounting keeps [parks = wakes + spurious_wakes] exact at
   quiescence: every block is followed by exactly one classification —
   [wakes] when the post-wake re-check finds work (or a terminal state:
   the doorbell was rung *for* us), [spurious_wakes] when it finds
   nothing and the worker re-parks.

   [search_start] is the enclosing search's steal-latency stamp (-1
   when tracing is off). Re-check steals before the first block measure
   from it; after a wake they measure from the wake, the same re-stamp
   the callers apply once a park elapsed. *)
let try_park pool w ~done_ ~search_start =
  if pool.fault_on && fault_poll pool w then false
  else begin
    let tr = pool.trace in
    let traced = pool.traced in
    let since = ref search_start in
    let recheck () = park_recheck pool w ~done_ ~search_start:!since in
    let block ~ticket =
      w.metrics.parks <- w.metrics.parks + 1;
      if traced then Trace.record_park tr ~worker:w.id ~time:(Trace.now tr);
      Parking_lot.block pool.lot ~should_block:(fun () ->
          Park.should_block pool.park ~ticket)
    in
    let rec go blocked =
      match Park.park pool.park ~recheck ~block with
      | `Found -> blocked
      | `Woke ->
          (* The post-wake classification sweep is the [searchers]
             window [ring_one] throttles on (see its safety note): the
             increment precedes the sweep, the decrement precedes any
             re-park's announce -> re-check, so a publisher that skipped
             its ring because it saw us here is always covered by one of
             the two. *)
          Atomic.incr pool.searchers;
          if traced && !since >= 0 then since := Trace.now tr;
          let found = recheck () in
          Atomic.decr pool.searchers;
          if found then begin
            w.metrics.wakes <- w.metrics.wakes + 1;
            if traced then Trace.record_wake tr ~worker:w.id ~time:(Trace.now tr) ~spurious:false;
            (* Hand the search on: we are about to get busy with what we
               acquired, and the throttle may have swallowed doorbells
               for tasks published mid-sweep — if anyone is still
               parked, let them take over the search. *)
            ring_one pool;
            true
          end
          else begin
            w.metrics.spurious_wakes <- w.metrics.spurious_wakes + 1;
            if traced then Trace.record_wake tr ~worker:w.id ~time:(Trace.now tr) ~spurious:true;
            go true
          end
    in
    go false
  end

(* One failed steal round: spin through the worker's backoff; once it
   saturates, park in the pool's lot until a doorbell rings. This
   replaces the old saturated-backoff [Unix.sleepf] quantum, which kept
   every idle worker burning its core (and a fixed wake-up latency)
   forever; a parked worker costs nothing and wakes on the doorbell
   that publishes its next task. Returns [true] iff the worker parked. *)
let idle_pause pool w ~done_ ~search_start =
  if Backoff.saturated w.backoff then begin
    let parked = try_park pool w ~done_ ~search_start in
    Backoff.reset w.backoff;
    parked
  end
  else begin
    Backoff.once w.backoff;
    false
  end

(* {2 The effects-based task core}

   Every task a worker executes runs inside an effect handler (one
   static handler value, installed by [run_task]; no per-task handler
   allocation). User code can then:

   - [perform (Fork t)]: push [t] on the current worker's deque — the
     primitive [fork_join] is sugar over;
   - [perform (Suspend register)]: capture the current continuation [k]
     as a {e fiber}, call [register resume] where [resume] schedules
     [k]'s resumption (at most once — extra calls are ignored), and
     return the worker to its run loop without blocking. [resume] is
     safe from any thread: from a worker of the same pool it pushes the
     resumption on that worker's deque; from anywhere else it goes
     through the external-submission injector.

   Suspension is only legal at scheduler depth 0 (not under a
   [fork_join] branch or a [parallel_for] chunk): a continuation
   captured there would close over the worker's LIFO frame pool and
   could not migrate. [Future.await] respects this automatically by
   helping instead of parking; a direct [Suspend] at depth > 0 is
   refused with [Invalid_argument] delivered at the perform site. *)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Fork : task -> unit Effect.t

(* The scope installed when the current task has no fiber cancellation
   flag of its own. Never set: plain tasks are cancelled only through
   the pool-level flag. *)
let no_fscope = Atomic.make false

let record_resume pool w =
  w.metrics.resumes <- w.metrics.resumes + 1;
  let tr = pool.trace in
  if pool.traced then Trace.record_resume tr ~worker:w.id ~time:(Trace.now tr)

(* Schedule a parked continuation's resumption. The resumption is an
   ordinary deque task: it re-installs the fiber's cancellation scope
   and continues [k] on whichever worker picked it up ([run_task]'s
   bracket restores that worker's previous scope when the step ends).
   [scope] rides along because the resuming worker is in general not
   the one that parked. *)
let schedule_resume pool scope k =
  let t () =
    match Domain.DLS.get ctx_key with
    | Some (_, w) ->
        record_resume pool w;
        w.fscope <- scope;
        Effect.Deep.continue k ()
    | None -> Effect.Deep.continue k ()
  in
  match Domain.DLS.get ctx_key with
  | Some (pool', w) when pool' == pool -> push_task pool' w t
  | _ ->
      inject pool
        {
          ij_run = t;
          ij_abort =
            (fun () -> try Effect.Deep.discontinue k Cancelled with _ -> ());
        }

(* The one-shot resume closure handed to [Suspend]'s register callback:
   the CAS makes double-resume (a completion racing a cancellation, a
   buggy event source firing twice) a silent no-op instead of a
   [Continuation_already_resumed] crash on the second caller. *)
let make_resume pool scope k =
  let claimed = Atomic.make false in
  fun () -> if Atomic.compare_and_set claimed false true then schedule_resume pool scope k

let fiber_effc : type b. b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option =
  function
  | Suspend register ->
      Some
        (fun k ->
          match Domain.DLS.get ctx_key with
          | Some (pool, w) when w.sched_depth = 0 ->
              w.metrics.suspends <- w.metrics.suspends + 1;
              let tr = pool.trace in
              if pool.traced then
                Trace.record_suspend tr ~worker:w.id ~time:(Trace.now tr);
              (* Suspension points are fault poll points: a plan may
                 stall here (stretching the window between registering
                 the waiter and the completion that resumes it) or fire
                 its cancellation. *)
              if pool.fault_on then ignore (fault_poll pool w);
              let resume = make_resume pool w.fscope k in
              (match register resume with
              | () -> ()
              | exception e -> Effect.Deep.discontinue k e)
          | Some _ ->
              Effect.Deep.discontinue k
                (Invalid_argument
                   "Scheduler: Suspend inside a fork_join branch or parallel_for chunk")
          | None ->
              Effect.Deep.discontinue k (Invalid_argument "Scheduler: Suspend outside a pool"))
  | Fork t ->
      Some
        (fun k ->
          (match Domain.DLS.get ctx_key with
          | Some (pool, w) -> push_task pool w t
          | None -> t ());
          Effect.Deep.continue k ())
  | _ -> None

(* One handler value for the whole program: installing it is just the
   [match_with] frame, no allocation per task. *)
let fiber_handler : (unit, unit) Effect.Deep.handler =
  { retc = (fun () -> ()); exnc = (fun e -> raise e); effc = fiber_effc }

let run_fiber (body : unit -> unit) = Effect.Deep.match_with body () fiber_handler

(* Execute one task as one fiber step. The bracket saves and restores
   the worker's scheduler depth and cancellation scope around the
   delimited computation: a task starts a fresh context (depth 0, no
   scope) even when run from a helping loop nested under a join, and
   whatever scope the task installed for itself dies with the step —
   which ends either by completing or by suspending. *)
let run_task pool w (t : task) =
  w.metrics.tasks_run <- w.metrics.tasks_run + 1;
  let tr = pool.trace in
  let traced = pool.traced in
  if traced then Trace.record_task_start tr ~worker:w.id ~time:(Trace.now tr);
  let saved_depth = w.sched_depth and saved_scope = w.fscope in
  w.sched_depth <- 0;
  w.fscope <- no_fscope;
  let leave () =
    w.sched_depth <- saved_depth;
    w.fscope <- saved_scope;
    if traced then Trace.record_task_end tr ~worker:w.id ~time:(Trace.now tr)
  in
  match run_fiber t with
  | () -> leave ()
  | exception e ->
      leave ();
      raise e

(* The worker run loop shared by every blocking point — helping a join
   whose child was stolen, awaiting a future from a non-suspendable
   context, driving a suspended root fiber to completion: run own and
   stolen tasks (and drain external submissions) until [done_ ()]. *)
let help_while pool w done_ =
  let tr = pool.trace in
  let traced = pool.traced in
  let search_start = ref (-1) in
  let idle_enter () =
    if traced && !search_start < 0 then begin
      let time = Trace.now tr in
      search_start := time;
      Trace.record_idle_enter tr ~worker:w.id ~time
    end
  in
  let idle_exit () =
    if traced && !search_start >= 0 then begin
      Trace.record_idle_exit tr ~worker:w.id ~time:(Trace.now tr);
      search_start := -1
    end
  in
  Backoff.reset w.backoff;
  while not (done_ ()) do
    handle_pending pool w;
    match pop_own pool w with
    | Some t ->
        idle_exit ();
        Backoff.reset w.backoff;
        run_task pool w t
    | None ->
        if not (done_ ()) then begin
          w.metrics.idle_loops <- w.metrics.idle_loops + 1;
          idle_enter ();
          if drain_injector pool w then idle_exit ()
          else
            match steal_once pool w ~search_start:!search_start with
            | Some t ->
                idle_exit ();
                Backoff.reset w.backoff;
                run_task pool w t
            | None ->
                if idle_pause pool w ~done_ ~search_start:!search_start then
                  (* A park elapsed: re-stamp so the steal-latency
                     sample measures the post-park search, not the
                     blocked time. *)
                  if traced && !search_start >= 0 then search_start := Trace.now tr
        end
  done;
  idle_exit ()

(* Do the helpers have a reason to be awake? A running job, or
   externally submitted futures not yet completed. *)
let serving pool =
  (not (Atomic.get pool.stop))
  && (Atomic.get pool.job_active || Atomic.get pool.service > 0)

(* Helper workers' task acquisition (Listing 1's [get_task]): own deque,
   then the injector and repeated steal attempts, until neither a job
   nor outstanding submissions remain. *)
let get_task pool w =
  if not (serving pool) then None
  else
    match pop_own pool w with
    | Some _ as r -> r
    | None ->
        let tr = pool.trace in
        let traced = pool.traced in
        let t0 = if traced then Trace.now tr else -1 in
        if traced then Trace.record_idle_enter tr ~worker:w.id ~time:t0;
        Backoff.reset w.backoff;
        let finish r =
          if traced then Trace.record_idle_exit tr ~worker:w.id ~time:(Trace.now tr);
          Backoff.reset w.backoff;
          r
        in
        let done_ () = not (serving pool) in
        (* Every round starts with [pop_own]: a park's re-check (and a
           drain) acquires work into our *own* deque, and the park sweep
           deliberately skips self — so any path back into this loop
           must drain the own deque before it can possibly park again,
           or the acquired task would sleep in a parked worker's private
           part where no thief can see it and no exposure signal can
           reach a poll. (Invariant: a worker never blocks in the lot
           with a non-empty own deque.)

           [search_start] is re-stamped at every acquisition round:
           stamping it once outside the loop attributed an entire
           multi-round idle period (worse once rounds can park) to
           whichever steal finally succeeded, inflating the
           steal-latency percentiles. *)
        let rec loop search_start =
          if not (serving pool) then finish None
          else
            match pop_own pool w with
            | Some _ as r -> finish r
            | None ->
                w.metrics.idle_loops <- w.metrics.idle_loops + 1;
                if drain_injector pool w then loop (if traced then Trace.now tr else -1)
                else (
                  match steal_once pool w ~search_start with
                  | Some _ as r -> finish r
                  | None ->
                      if idle_pause pool w ~done_ ~search_start then
                        loop (if traced then Trace.now tr else -1)
                      else loop search_start)
        in
        loop t0

(* A helper between jobs: park until the pool is serving again (a job
   started, or a submission is outstanding) or stopping. The park runs
   the same [Park] announce -> re-check -> block protocol and dock as an
   in-job park, but writes no counter and no trace event, and its
   re-check acquires nothing: with no job and no submission there is no
   work a helper may run, and [get_task] would not run a stolen task
   before the next job anyway. The doorbells that end it: [Pool.run]
   marking the job active, [inject] after its push, [shutdown].

   [docked] brackets the idle period for [quiesce]. It is raised after
   the helper's last counter write of the job, and lowered before the
   helper re-reads [serving] in [get_task]. [quiesce] loads [docked]
   only after it has seen the seat free, i.e. after [run]'s
   [job_active] store; so either it sees the helper still undocked and
   waits, or the helper sees the job over and goes straight back to
   idling without touching a counter. *)
let idle_between_jobs pool w =
  Atomic.set w.docked true;
  ignore
    (Park.park pool.park
       ~recheck:(fun () -> serving pool || Atomic.get pool.stop)
       ~block:(fun ~ticket ->
         Parking_lot.block pool.lot ~should_block:(fun () -> Park.should_block pool.park ~ticket)));
  Atomic.set w.docked false

let helper_body pool w =
  Domain.DLS.set ctx_key (Some (pool, w));
  let rec work () =
    match get_task pool w with
    | Some t ->
        handle_pending pool w;
        run_task pool w t;
        handle_pending pool w;
        work ()
    | None -> ()
  in
  (* [work] only returns once [serving] is false, and the idle park's
     re-check re-reads [serving], so a job started between the two
     cannot be slept through. *)
  while not (Atomic.get pool.stop) do
    work ();
    if not (Atomic.get pool.stop) then idle_between_jobs pool w
  done;
  (* A [shutdown] racing a job: [get_task] stops serving as soon as
     [stop] is up, but tasks this helper has already acquired — a batch
     steal's extras, a park re-check's or an injector drain's take — can
     still sit on its own deque, and a worker whose join waits on one of
     them cannot steal it out of a private part once this domain is
     gone: the job would never finish. Run them before leaving; under
     the shutdown's cancellation each unwinds at once and publishes its
     outcome. *)
  let rec drain () =
    match pop_own pool w with
    | Some t ->
        run_task pool w t;
        drain ()
    | None -> ()
  in
  drain ()

(* Wait until every helper has left the last job and docked in
   [idle_between_jobs], where it writes no counter. [Pool.metrics] and
   [Pool.reset_metrics] call this between jobs, so once [run] has
   returned they are exact: without it, a helper still in its last steal
   probes or park re-check sweeps bumps its counters after a reset has
   zeroed them. Waiting here rather than at the end of [run] keeps the
   wind-down off the job's own time.

   Only between jobs: with the driver seat taken (a job, or an external
   awaiter driving worker 0) helpers have work to serve and the read is
   a racy snapshot, as documented. The [ring_all] sends helpers still
   parked inside the finished job back through their re-check, which
   sees the job over, so they classify that park (as a wake) and dock;
   without it they would sleep on, undocked, until the next doorbell.

   The wait gives way to [stop] (a concurrent [shutdown]) and to
   outstanding submissions, which helpers keep serving between jobs by
   design; then the counters stay a racy snapshot until [shutdown]. It
   is skipped when called from one of the pool's own workers (a task
   reading its pool's metrics: its own worker cannot dock while it
   waits). A helper still running a task, such as a spawned future the
   job never awaited, can hold its dock off for as long as the task
   runs, so the wait is bounded by [quiesce_timeout_s]: past it the read
   is a racy snapshot, as inside a job, rather than a hang. Docking
   itself takes microseconds. *)
let quiesce_timeout_s = 1.0

let quiesce pool =
  let all_docked () = Array.for_all (fun w -> w.id = 0 || Atomic.get w.docked) pool.workers in
  let from_worker =
    match Domain.DLS.get ctx_key with Some (p, _) -> p == pool | None -> false
  in
  if pool.nw > 1 && (not from_worker) && (not (Atomic.get pool.running)) && not (all_docked ())
  then begin
    ring_all pool;
    let deadline = Unix.gettimeofday () +. quiesce_timeout_s in
    let spins = ref 0 in
    while
      not
        (Atomic.get pool.stop || Atomic.get pool.running || Atomic.get pool.service > 0
       || all_docked ()
        || (!spins >= 1_000 && Unix.gettimeofday () > deadline))
    do
      if !spins < 1_000 then begin
        incr spins;
        Domain.cpu_relax ()
      end
      else
        (* A helper that is descheduled (more domains than cores) needs
           this core more than the spin does. *)
        Unix.sleepf 20e-6
    done
  end

(* Ambient [Suspend]: park the current fiber. From a worker at scheduler
   depth 0 this performs the effect; deeper (inside a fork_join branch
   or a loop chunk) the continuation cannot legally be captured, so the
   worker helps with other work until resumed — same observable
   semantics, no parking. Outside any pool the calling thread blocks on
   a condvar until [resume] fires (the degenerate one-thread
   scheduler). *)
let suspend (register : (unit -> unit) -> unit) : unit =
  match Domain.DLS.get ctx_key with
  | Some (_, w) when w.sched_depth = 0 -> Effect.perform (Suspend register)
  | Some (pool, w) ->
      let resumed = Atomic.make false in
      (* ring **all**: the wake must reach this worker specifically if
         it parked while helping (a one-sleeper signal could be absorbed
         by a bystander). *)
      register (fun () ->
          Atomic.set resumed true;
          ring_all pool);
      help_while pool w (fun () -> Atomic.get resumed)
  | None ->
      let m = Mutex.create () in
      let c = Condition.create () in
      let resumed = ref false in
      register (fun () ->
          Mutex.lock m;
          resumed := true;
          Condition.signal c;
          Mutex.unlock m);
      Mutex.lock m;
      while not !resumed do
        Condition.wait c m
      done;
      Mutex.unlock m

(* Ambient [Fork]: push a task on the calling worker's deque (run
   immediately outside a pool). Equivalent to [perform (Fork t)] from
   under the handler, without requiring one. *)
let fork (t : task) : unit =
  match Domain.DLS.get ctx_key with
  | Some (pool, w) -> push_task pool w t
  | None -> t ()

(* {2 Futures}

   The state machine is one atomic word per future:

   {v Pending [w1; ...; wn]  --complete-->  Done result v}

   Waiters CAS themselves into the pending list; the completer CASes the
   [Done] in (exactly one completion wins — a cancellation racing the
   computation's own finish resolves here) and then runs every waiter
   callback, FIFO. A waiter that arrives after completion runs
   immediately on its own thread. Everything else — parking fibers,
   external blocking, combinators — is built from [add_waiter] +
   [complete]. *)
module Future = struct
  type 'a t = {
    core : 'a Future_core.t;
        (* the Pending→Done state machine and the fiber cancellation
           flag ([Sched_protocol.Future_core]); the flag is installed
           as [w.fscope] while the future's computation runs, observed
           by [Ops.cancelled] and by [parallel_for] chunks through the
           loop scope *)
    fpool : pool option;
        (* where the computation (or, for a combinator, its inputs)
           runs: lets an external awaiter drive worker 0 when no job is
           in flight — a single-worker pool has no helper domains at
           all, so without this an external await could hang *)
    fservice : bool; (* completion decrements [fpool]'s service count *)
  }

  let make ?pool:fpool ?(service = false) () =
    { core = Future_core.make (); fpool; fservice = service }

  let of_result r =
    let core = Future_core.make () in
    ignore (Future_core.complete core r);
    { core; fpool = None; fservice = false }

  let add_waiter fut cb = Future_core.add_waiter fut.core cb

  (* [true] iff this call won the completion race; the kernel hands the
     winner its waiter list (FIFO) to run. *)
  let complete fut r =
    match Future_core.complete fut.core r with
    | None -> false
    | Some ws ->
        (if fut.fservice then
           match fut.fpool with
           | Some p -> ignore (Atomic.fetch_and_add p.service (-1))
           | None -> ());
        List.iter (fun cb -> cb ()) ws;
        true

  let try_await fut = Future_core.peek fut.core

  let is_done fut = Future_core.is_done fut.core

  let unwrap = function Ok v -> v | Error e -> raise e

  let finished fut =
    match Future_core.peek fut.core with Some r -> unwrap r | None -> assert false

  (* The task body a future's computation runs as: one fresh fiber. It
     installs the future's cancellation flag as the worker's scope
     ([run_task]'s bracket uninstalls it when the step ends), observes
     cancellation and exception injection before starting, and
     publishes its outcome through [complete] — waking every waiter,
     wherever it parked. Nothing after a potential suspension point may
     touch the worker captured here: the fiber can migrate, so
     post-[f] code re-reads the context. *)
  let fiber_task (type a) fut (f : unit -> a) : task =
   fun () ->
    match Domain.DLS.get ctx_key with
    | Some (pool, w) ->
        w.fscope <- Future_core.cancel_cell fut.core;
        let r =
          if Atomic.get pool.cancel_requested || Future_core.cancel_requested fut.core
          then Error Cancelled
          else begin
            match
              if pool.fault_on then
                Fault.inject_now pool.fault ~worker:w.id ~metrics:w.metrics
              else None
            with
            | Some (iw, k) ->
                record_fault pool w Fault.code_inject;
                Error (Fault.Injected (iw, k))
            | None -> ( match f () with v -> Ok v | exception e -> Error e)
          end
        in
        (match r with
        | Ok _ -> ()
        | Error _ -> (
            (* re-read: [f] may have suspended and resumed elsewhere *)
            match Domain.DLS.get ctx_key with
            | Some (pool', w') ->
                w'.metrics.task_exns <- w'.metrics.task_exns + 1;
                let tr = pool'.trace in
                if pool'.traced then
                  Trace.record_task_exn tr ~worker:w'.id ~time:(Trace.now tr)
            | None -> ()));
        ignore (complete fut r)
    | None -> ignore (complete fut (match f () with v -> Ok v | exception e -> Error e))

  let spawn (f : unit -> 'a) : 'a t =
    match Domain.DLS.get ctx_key with
    | None -> of_result (match f () with v -> Ok v | exception e -> Error e)
    | Some (pool, w) ->
        let fut = make ~pool () in
        w.metrics.futures <- w.metrics.futures + 1;
        push_task pool w (fiber_task fut f);
        fut

  let cancel fut =
    Future_core.request_cancel fut.core;
    ignore (complete fut (Error Cancelled))

  (* External blocking await with self-driving: if the future's pool has
     no job in flight, the awaiting thread elects itself the driver (the
     same exclusivity word [Pool.run] uses) and schedules on worker 0
     until the future settles. Losers of the election park on the
     pool's condvar; the winner broadcasts when it releases, so pending
     externals chain as drivers. *)
  let block_on_pool pool fut =
    add_waiter fut (fun () ->
        Mutex.lock pool.mutex;
        Condition.broadcast pool.cond;
        Mutex.unlock pool.mutex;
        (* the awaiting thread may be *driving* worker 0 and parked in
           the lot rather than on the pool condvar *)
        ring_all pool);
    let rec wait_loop () =
      if is_done fut || Atomic.get pool.stop then ()
      else if Atomic.compare_and_set pool.running false true then begin
        Atomic.set pool.ext_driver true;
        let w0 = pool.workers.(0) in
        let saved = Domain.DLS.get ctx_key in
        Domain.DLS.set ctx_key (Some (pool, w0));
        let leave () =
          Domain.DLS.set ctx_key saved;
          Atomic.set pool.ext_driver false;
          Atomic.set pool.running false;
          Mutex.lock pool.mutex;
          Condition.broadcast pool.cond;
          Mutex.unlock pool.mutex
        in
        (match help_while pool w0 (fun () -> is_done fut || Atomic.get pool.stop) with
        | () -> leave ()
        | exception e ->
            leave ();
            raise e);
        wait_loop ()
      end
      else begin
        Mutex.lock pool.mutex;
        if (not (is_done fut)) && Atomic.get pool.running && not (Atomic.get pool.stop)
        then Condition.wait pool.cond pool.mutex;
        Mutex.unlock pool.mutex;
        wait_loop ()
      end
    in
    wait_loop ();
    match Future_core.peek fut.core with
    | Some r -> unwrap r
    | None -> raise Cancelled (* the pool shut down under us *)

  (* Plain condvar blocking for pool-less futures (only reachable for
     already-settled sequential-fallback futures and hand-built ones). *)
  let block_plain fut =
    let m = Mutex.create () in
    let c = Condition.create () in
    add_waiter fut (fun () ->
        Mutex.lock m;
        Condition.broadcast c;
        Mutex.unlock m);
    Mutex.lock m;
    while not (is_done fut) do
      Condition.wait c m
    done;
    Mutex.unlock m;
    finished fut

  let await (fut : 'a t) : 'a =
    match Future_core.peek fut.core with
    | Some r -> unwrap r
    | None -> (
        match Domain.DLS.get ctx_key with
        | Some (_, w) when w.sched_depth = 0 ->
            (* Fiber context: park. If the future completed between the
               [Pending] read and the register call, [add_waiter] runs
               the resume immediately and the continuation lands on the
               worker's own deque — no lost wakeup. *)
            Effect.perform (Suspend (fun resume -> add_waiter fut resume));
            finished fut
        | Some (pool, w) ->
            (* Under a fork_join branch or loop chunk: the continuation
               cannot be captured, so help until the future settles. The
               completion must ring this specific worker out of any park
               it takes while helping. *)
            add_waiter fut (fun () -> ring_all pool);
            help_while pool w (fun () -> is_done fut);
            finished fut
        | None -> (
            match fut.fpool with Some pool -> block_on_pool pool fut | None -> block_plain fut))

  let inherited a b = match a.fpool with Some _ as p -> p | None -> b.fpool

  let both (a : 'a t) (b : 'b t) : ('a * 'b) t =
    let fut = { core = Future_core.make (); fpool = inherited a b; fservice = false } in
    let remaining = Atomic.make 2 in
    let arm () =
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        let ra = match Future_core.peek a.core with Some r -> r | None -> assert false in
        let rb = match Future_core.peek b.core with Some r -> r | None -> assert false in
        ignore
          (complete fut
             (match (ra, rb) with
             | Ok x, Ok y -> Ok (x, y)
             | Error e, _ -> Error e
             | _, Error e -> Error e))
      end
    in
    add_waiter a arm;
    add_waiter b arm;
    fut

  let first (a : 'a t) (b : 'a t) : 'a t =
    let fut = { core = Future_core.make (); fpool = inherited a b; fservice = false } in
    let settle r loser = if complete fut r then cancel loser in
    add_waiter a (fun () ->
        match Future_core.peek a.core with Some r -> settle r b | None -> ());
    add_waiter b (fun () ->
        match Future_core.peek b.core with Some r -> settle r a | None -> ());
    fut

  let all (futs : 'a t list) : 'a list t =
    match futs with
    | [] -> of_result (Ok [])
    | f0 :: _ ->
        let fut = { core = Future_core.make (); fpool = f0.fpool; fservice = false } in
        let remaining = Atomic.make (List.length futs) in
        let arm () =
          if Atomic.fetch_and_add remaining (-1) = 1 then begin
            (* first error in list order wins, matching [fork_join]'s
               left-to-right exception priority *)
            let rec collect = function
              | [] -> Ok []
              | f :: rest -> (
                  match Future_core.peek f.core with
                  | Some (Ok v) -> (
                      match collect rest with Ok vs -> Ok (v :: vs) | Error e -> Error e)
                  | Some (Error e) -> Error e
                  | None -> assert false)
            in
            ignore (complete fut (collect futs))
          end
        in
        List.iter (fun f -> add_waiter f arm) futs;
        fut
end

module Pool = struct
  type t = pool

  let create ?(seed = 42L) ?(deque_capacity = 65536) ?deque ?(trace = Trace.null)
      ?fault:fault_plan ?(steal_policy = Victim_policy.Near_first) ?topology
      ?(steal_batch = 8) ?(adaptive = false) ?adaptive_config ~num_workers ~variant () =
    if num_workers < 1 then invalid_arg "Pool.create: num_workers must be >= 1";
    if steal_batch < 1 then invalid_arg "Pool.create: steal_batch must be >= 1";
    if adaptive && variant = Ws then
      invalid_arg
        "Pool.create: adaptive needs a synchronization-light variant (Uslcws, Signal, \
         Cons or Half), not Ws";
    (* A worker starts in the mode that reproduces the static pool's
       behavior, so an adaptive pool is indistinguishable from its
       variant until the governor's first accepted switch. *)
    let initial_mode =
      match variant with
      | Uslcws -> Policy_switch.unsync
      | Ws | Signal | Cons | Half -> Policy_switch.handshake
    in
    let governor =
      if not adaptive then None
      else begin
        let config =
          match adaptive_config with
          | Some c -> c
          | None -> Policy_governor.default_config
        in
        let initial =
          if initial_mode = Policy_switch.unsync then Policy_governor.Unsync
          else Policy_governor.Handshake
        in
        Some
          {
            g_state = Policy_governor.create ~config ~initial ();
            g_lock = Atomic.make false;
            g_epoch = config.Policy_governor.epoch;
          }
      end
    in
    let fault =
      match fault_plan with None -> Fault.none | Some p -> Fault.create p ~num_workers
    in
    let impl = match deque with Some i -> i | None -> default_deque_impl variant in
    if (not (impl_concurrent impl)) && num_workers > 1 then
      invalid_arg
        (Printf.sprintf
           "Pool.create: deque %S is a sequential specification; use num_workers:1"
           (impl_name impl));
    let traced = Trace.enabled trace in
    if traced && Trace.num_workers trace < num_workers then
      invalid_arg "Pool.create: trace was created for fewer workers";
    let root_rng = Xoshiro.create seed in
    let make_worker id =
      let metrics = Metrics.create () in
      let rng = Xoshiro.split root_rng id in
      {
        id;
        metrics;
        deque = make impl ~capacity:deque_capacity ~dummy:dummy_task ~metrics;
        (* Thief-written flags get a cache line each: a notify to one
           worker must not invalidate the line a neighbour's flag (or an
           adjacent worker record's fields) lives on. *)
        targeted = Padding.atomic false;
        signal_pending = Padding.atomic false;
        rng;
        vsel =
          Victim_policy.create ?topology ~policy:steal_policy ~rng ~self:id ~nw:num_workers
            ();
        steal_buf = Array.make (steal_batch - 1) dummy_task;
        backoff = Backoff.create ~min_wait:1 ~max_wait:64 ~metrics ();
        pswitch = Policy_switch.make ~mode:initial_mode ();
        polls = 0;
        frames = Array.init initial_frames (fun _ -> make_frame ());
        frame_top = 0;
        sched_depth = 0;
        fscope = no_fscope;
        docked = Atomic.make false;
      }
    in
    let pool =
      {
        pvariant = variant;
        nw = num_workers;
        steal_limit = steal_batch;
        workers = Array.init num_workers make_worker;
        domains = [];
        job_active = Atomic.make false;
        stop = Atomic.make false;
        mutex = Mutex.create ();
        cond = Condition.create ();
        running = Atomic.make false;
        ext_driver = Atomic.make false;
        trace;
        traced;
        fault;
        fault_on = Fault.active fault;
        cancel_requested = Atomic.make false;
        injector = Injector.create ();
        service = Atomic.make 0;
        park = Park.make ();
        lot = Parking_lot.create ();
        searchers = Atomic.make 0;
        adaptive;
        governor;
      }
    in
    pool.domains <-
      List.init (num_workers - 1) (fun i ->
          let w = pool.workers.(i + 1) in
          Domain.spawn (fun () -> helper_body pool w));
    pool

  let run pool f =
    if Atomic.get pool.stop then invalid_arg "Pool.run: pool was shut down";
    (* Re-entrancy: from one of this pool's own workers, [run] can never
       be correct — the calling domain already *is* a worker, and
       impersonating worker 0 on top of it would give two domains the
       same deque. (When a job is active the [running] CAS below also
       catches this, but a submitted task executing between jobs would
       otherwise slip through.) *)
    (match Domain.DLS.get ctx_key with
    | Some (pool', _) when pool' == pool ->
        invalid_arg
          "Pool.run: called from inside one of this pool's own workers (use Future.spawn \
           or Pool.submit instead)"
    | _ -> ());
    (* Take the driver seat. An external awaiter holding it
       ([Future.block_on_pool]) releases as soon as its future settles,
       so that collision is waited out on the pool's condvar (the
       driver broadcasts on release); only a genuinely concurrent [run]
       — seat held with [ext_driver] unset — is refused. *)
    let rec acquire_seat () =
      if Atomic.get pool.stop then invalid_arg "Pool.run: pool was shut down";
      if Atomic.compare_and_set pool.running false true then ()
      else if Atomic.get pool.ext_driver then begin
        Mutex.lock pool.mutex;
        if Atomic.get pool.running && Atomic.get pool.ext_driver
           && not (Atomic.get pool.stop)
        then Condition.wait pool.cond pool.mutex;
        Mutex.unlock pool.mutex;
        acquire_seat ()
      end
      else if Atomic.get pool.running then
        invalid_arg "Pool.run: a job is already running"
      else acquire_seat ()
    in
    acquire_seat ();
    let w0 = pool.workers.(0) in
    let saved = Domain.DLS.get ctx_key in
    Domain.DLS.set ctx_key (Some (pool, w0));
    w0.sched_depth <- 0;
    w0.fscope <- no_fscope;
    (* A previous job's cancellation (a fault plan's, or an explicit
       [cancel] that landed after the job ended) must not bleed into
       this one. *)
    Atomic.set pool.cancel_requested false;
    Atomic.set pool.job_active true;
    (* Job-start doorbell. Safe to gate on the parked count: a helper
       not yet announced when we load it will re-check [serving] — which
       reads the [job_active] store above — before blocking. *)
    ring_all pool;
    let finish () =
      Atomic.set pool.job_active false;
      Domain.DLS.set ctx_key saved;
      Atomic.set pool.running false;
      (* External awaiters may be parked on the pool's condvar waiting
         for the driver seat we just vacated. *)
      Mutex.lock pool.mutex;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex
    in
    (* The job is a root fiber: [f] runs under the effect handler, so it
       may suspend ([Future.await] at top level parks instead of
       spinning). If it does, worker 0 keeps scheduling — running its
       own deque, stolen work and external submissions — until the
       root's continuation, wherever it resumed, publishes the
       outcome. *)
    let root_done = Atomic.make false in
    let outcome = ref None in
    let root () =
      (match f () with
      | v -> outcome := Some (Ok v)
      | exception e -> outcome := Some (Error (e, Printexc.get_raw_backtrace ())));
      Atomic.set root_done true;
      (* If the root suspended, this final step may run on a helper
         while worker 0 is parked in [help_while] below: ring it out
         (all — the wake must reach worker 0 specifically). *)
      ring_all pool
    in
    (match run_fiber root with
    | () -> ()
    | exception e ->
        (* unreachable in practice: [root] catches everything *)
        finish ();
        raise e);
    if not (Atomic.get root_done) then
      help_while pool w0 (fun () -> Atomic.get root_done);
    finish ();
    match !outcome with
    | Some (Ok v) -> v
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | None -> assert false

  (* Thread-safe external (or worker-side) submission: the task runs as
     a fiber on the pool; the future can be awaited from anywhere. From
     a worker of this pool the task goes straight onto that worker's
     deque; from any other thread it goes through the MPSC injector,
     which workers drain at their steal points. The service count keeps
     helpers scheduling for the future even with no [run] in flight. *)
  let submit (type a) pool (f : unit -> a) : a Future.t =
    if Atomic.get pool.stop then invalid_arg "Pool.submit: pool was shut down";
    let fut = Future.make ~pool ~service:true () in
    Atomic.incr pool.service;
    (match Domain.DLS.get ctx_key with
    | Some (pool', w) when pool' == pool ->
        w.metrics.submits <- w.metrics.submits + 1;
        w.metrics.futures <- w.metrics.futures + 1;
        let tr = pool.trace in
        if pool.traced then Trace.record_submit tr ~worker:w.id ~time:(Trace.now tr);
        push_task pool' w (Future.fiber_task fut f)
    | _ ->
        inject pool
          {
            ij_run = Future.fiber_task fut f;
            ij_abort = (fun () -> ignore (Future.complete fut (Error Cancelled)));
          });
    fut

  let cancel pool = request_cancel pool

  (* Idempotent: the CAS elects one caller to do the work; later (or
     concurrent) calls return immediately. Cancellation is requested
     first so an in-flight job unwinds through its cancellation points
     instead of being waited out; the helpers are then joined, after
     which the drain below runs with no concurrent deque owners. *)
  let shutdown pool =
    if Atomic.compare_and_set pool.stop false true then begin
      request_cancel pool;
      (* Explicit ring: [request_cancel] only rings when it wins the
         cancellation race, and parked workers must observe [stop]. The
         broadcast below serves condvar waiters (seat handshake). *)
      ring_all pool;
      Mutex.lock pool.mutex;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex;
      List.iter Domain.join pool.domains;
      pool.domains <- [];
      (* Wait out the driver seat — a [run] caller unwinding through its
         cancellation points, or an external awaiter driving worker 0.
         Both observe [stop] and release; holding the seat through the
         sweep below means no concurrent deque owner. *)
      while not (Atomic.compare_and_set pool.running false true) do
        Domain.cpu_relax ()
      done;
      (* Close the injector: atomically refuse all future pushes and
         take every entry that never reached a worker, aborting each
         (their futures complete with [Cancelled]) so external awaiters
         unwind instead of hanging. A submit racing this very close
         either got in — and is drained here — or is refused and
         aborted by [inject] itself; no entry is stranded. *)
      (match Injector.close pool.injector with
      | [] -> ()
      | entries ->
          let w0 = pool.workers.(0) in
          w0.metrics.drained_tasks <- w0.metrics.drained_tasks + List.length entries;
          List.iter (fun e -> e.ij_abort ()) entries);
      (* Every completed job joins all its frames, so the deques are
         normally empty here; this sweep is the backstop that restores
         the pool's invariants if a job was torn down abnormally. *)
      Array.iter
        (fun w ->
          let (Instance ((module D), d)) = w.deque in
          let n = D.size d in
          if n > 0 then begin
            w.metrics.drained_tasks <- w.metrics.drained_tasks + n;
            D.clear d
          end)
        pool.workers;
      Atomic.set pool.running false;
      (* Wake any external awaiters still parked on the condvar. *)
      Mutex.lock pool.mutex;
      Condition.broadcast pool.cond;
      Mutex.unlock pool.mutex
    end

  let num_workers pool = pool.nw

  let variant pool = pool.pvariant

  let adaptive pool = pool.adaptive

  (* Racy snapshot of each worker's current exposure mode (exact between
     jobs): [Policy_governor.Unsync] or [Handshake] per worker. On a
     static pool, derived from the variant. *)
  let worker_modes pool =
    Array.map
      (fun w ->
        if
          (if pool.adaptive then Policy_switch.active_mode w.pswitch
           else
             match pool.pvariant with
             | Ws | Uslcws -> Policy_switch.unsync
             | Signal | Cons | Half -> Policy_switch.handshake)
          = Policy_switch.unsync
        then Policy_governor.Unsync
        else Policy_governor.Handshake)
      pool.workers

  let trace pool = pool.trace

  let deque_name pool =
    let (Instance ((module D), _)) = pool.workers.(0).deque in
    D.name

  let per_worker_metrics pool =
    quiesce pool;
    Array.map (fun w -> w.metrics) pool.workers

  let metrics pool = Metrics.sum (per_worker_metrics pool)

  let reset_metrics pool =
    quiesce pool;
    Array.iter (fun w -> Metrics.reset w.metrics) pool.workers

  (* Quiescent-state introspection (racy but exact between jobs): the
     chaos harness asserts both are 0 after every run, including runs
     that ended in an injected exception or a cancellation. *)

  let outstanding_tasks pool =
    Array.fold_left
      (fun acc w ->
        let (Instance ((module D), d)) = w.deque in
        acc + D.size d)
      (Injector.size pool.injector)
      pool.workers

  let frames_in_use pool = Array.fold_left (fun acc w -> acc + w.frame_top) 0 pool.workers

  let check_deque_invariants pool =
    let rec go i =
      if i >= pool.nw then Ok ()
      else
        match check_size_invariants pool.workers.(i).deque with
        | Ok () -> go (i + 1)
        | Error m -> Error (Printf.sprintf "worker %d: %s" i m)
    in
    go 0

  let fault_plan pool = if pool.fault_on then Some (Fault.plan pool.fault) else None
end

let tick () =
  match Domain.DLS.get ctx_key with
  | None -> ()
  | Some (pool, w) -> handle_pending pool w

let my_id () = match Domain.DLS.get ctx_key with None -> 0 | Some (_, w) -> w.id

let cancelled () =
  match Domain.DLS.get ctx_key with
  | None -> false
  | Some (pool, w) -> Atomic.get pool.cancel_requested || Atomic.get w.fscope

let check_cancel () = if cancelled () then raise Cancelled

let num_workers () =
  match Domain.DLS.get ctx_key with None -> 1 | Some (pool, _) -> pool.nw

(* The slow join path: [fr]'s child left our deque (a thief has it, or
   exposure moved it public and someone raced us to it). Help with other
   work until the frame's completion flag flips, then consume the
   outcome and recycle the frame. *)
let join_frame_stolen pool w fr : Obj.t =
  let tr = pool.trace in
  let traced = pool.traced in
  let search_start = ref (-1) in
  let idle_enter () =
    if traced && !search_start < 0 then begin
      let time = Trace.now tr in
      search_start := time;
      Trace.record_idle_enter tr ~worker:w.id ~time
    end
  in
  let idle_exit () =
    if traced && !search_start >= 0 then begin
      Trace.record_idle_exit tr ~worker:w.id ~time:(Trace.now tr);
      search_start := -1
    end
  in
  Backoff.reset w.backoff;
  let done_ () = not (Frame.is_pending fr) in
  while Frame.is_pending fr do
    handle_pending pool w;
    match pop_own pool w with
    | Some t ->
        idle_exit ();
        Backoff.reset w.backoff;
        run_task pool w t
    | None ->
        if Frame.is_pending fr then begin
          w.metrics.idle_loops <- w.metrics.idle_loops + 1;
          idle_enter ();
          if drain_injector pool w then idle_exit ()
          else
            match steal_once pool w ~search_start:!search_start with
            | Some t ->
                idle_exit ();
                Backoff.reset w.backoff;
                run_task pool w t
            | None ->
                (* [exec_frame]'s completion doorbell (ring-all) ends
                   this park; re-stamp the steal sample after one. *)
                if idle_pause pool w ~done_ ~search_start:!search_start then
                  if traced && !search_start >= 0 then search_start := Trace.now tr
        end
  done;
  idle_exit ();
  (* [consume]'s SC read of [state] orders the executor's [result]
     write before its [result] read, and resets the frame to pending
     for recycling. *)
  let r = Frame.consume fr in
  Atomic_shim.write fr.Frame.result unit_obj;
  release_frame w fr;
  match r with Ok v -> v | Error e -> raise e

(* Join on [fr] after the owner's own branch finished: the common case
   pops the frame's task straight back off the private bottom and runs
   the child inline — the frame's [state]/[result] are never touched, so
   an un-stolen fork/join does zero SC round trips and allocates only
   the pop's [Some]. *)
let rec join_frame pool w fr : Obj.t =
  (* One poll per join keeps the exposure-latency bound of the
     signal-based variants through fork-heavy recursions (the pre-frame
     code polled here too, via its wait loop's first iteration). *)
  handle_pending pool w;
  match pop_own pool w with
  | Some t ->
      if t == fr.Frame.task then begin
        if Atomic.get pool.cancel_requested then begin
          (* The child never left our private part, so nothing is
             exposed and the frame can recycle without running it. *)
          release_frame w fr;
          let tr = pool.trace in
          if pool.traced then
            Trace.record_cancel tr ~worker:w.id ~time:(Trace.now tr) ~chunks:0;
          raise Cancelled
        end;
        w.metrics.tasks_run <- w.metrics.tasks_run + 1;
        let tr = pool.trace in
        let traced = pool.traced in
        if traced then Trace.record_task_start tr ~worker:w.id ~time:(Trace.now tr);
        match
          (* The inline twin of [exec_frame]'s injection point, so the
             k-th task of a worker raises whether or not it was stolen.
             Written without an intermediate closure: this is the
             fork/join fast path and must not allocate. The depth bump
             (two plain int stores) marks the child as a scheduler
             frame, under which suspension is refused. *)
          (if pool.fault_on then
             match Fault.inject_now pool.fault ~worker:w.id ~metrics:w.metrics with
             | Some (iw, k) ->
                 record_fault pool w Fault.code_inject;
                 raise (Fault.Injected (iw, k))
             | None -> ());
          w.sched_depth <- w.sched_depth + 1;
          (match (Obj.obj (Atomic_shim.read fr.Frame.fn) : unit -> Obj.t) () with
          | v ->
              w.sched_depth <- w.sched_depth - 1;
              v
          | exception e ->
              w.sched_depth <- w.sched_depth - 1;
              raise e)
        with
        | v ->
            if traced then Trace.record_task_end tr ~worker:w.id ~time:(Trace.now tr);
            release_frame w fr;
            v
        | exception e ->
            if traced then Trace.record_task_end tr ~worker:w.id ~time:(Trace.now tr);
            w.metrics.task_exns <- w.metrics.task_exns + 1;
            if traced then Trace.record_task_exn tr ~worker:w.id ~time:(Trace.now tr);
            release_frame w fr;
            raise e
      end
      else begin
        (* Not ours: helping re-entered the scheduler under this join and
           left other work above our frame's task. Run it and retry. *)
        run_task pool w t;
        join_frame pool w fr
      end
  | None -> join_frame_stolen pool w fr

(* Join-and-discard for the [f]-raised path: [f]'s exception has
   priority, but the child must still be joined — its outcome consumed
   or the task run — before the frame can recycle. *)
let join_frame_discard pool w fr =
  match join_frame pool w fr with _ -> () | exception _ -> ()

let fork_join (type a b) (f : unit -> a) (g : unit -> b) : a * b =
  match Domain.DLS.get ctx_key with
  | None ->
      let a = f () in
      let b = g () in
      (a, b)
  | Some (pool, w) ->
      let fr = acquire_frame w in
      (* The frame stores [g] itself: [Obj.repr] is the identity, so
         calling it at [unit -> Obj.t] yields its result as the [Obj.t]
         that [join_frame] hands back. *)
      Atomic_shim.write fr.Frame.fn (Obj.repr g);
      (match push_task pool w fr.Frame.task with
      | () -> ()
      | exception e ->
          (* Deque rejected the push (capacity): nothing was exposed, the
             frame can recycle immediately. *)
          release_frame w fr;
          raise e);
      (match
         (* [f] runs at scheduler depth: its continuation includes this
            join, which closes over [w], so it must not migrate. *)
         w.sched_depth <- w.sched_depth + 1;
         (match f () with
         | a ->
             w.sched_depth <- w.sched_depth - 1;
             a
         | exception e ->
             w.sched_depth <- w.sched_depth - 1;
             raise e)
       with
      | a ->
          let b : b = Obj.obj (join_frame pool w fr) in
          (a, b)
      | exception e ->
          join_frame_discard pool w fr;
          raise e)

(* Specialized: no result tuple — with constant-closure branches the
   un-stolen fast path allocates only the pop's [Some] (2 words;
   [fork_join] adds its 3-word pair). [g] is stored as is: its [()]
   result is the [unit_obj] that [join_frame] returns. *)
let fork_join_unit (f : unit -> unit) (g : unit -> unit) : unit =
  match Domain.DLS.get ctx_key with
  | None ->
      f ();
      g ()
  | Some (pool, w) ->
      let fr = acquire_frame w in
      Atomic_shim.write fr.Frame.fn (Obj.repr g);
      (match push_task pool w fr.Frame.task with
      | () -> ()
      | exception e ->
          release_frame w fr;
          raise e);
      (match
         w.sched_depth <- w.sched_depth + 1;
         (match f () with
         | () -> w.sched_depth <- w.sched_depth - 1
         | exception e ->
             w.sched_depth <- w.sched_depth - 1;
             raise e)
       with
      | () -> ignore (join_frame pool w fr)
      | exception e ->
          join_frame_discard pool w fr;
          raise e)

(* {2 Lazy binary splitting}

   [parallel_for] used to split its range eagerly into a balanced tree
   of n/grain leaf tasks: O(n/grain) pushes (and frame uses) even when
   nothing is ever stolen. The lazy discipline below iterates the range
   sequentially one grain-sized chunk at a time and only forks the
   remaining right half off as a stealable task when observed demand
   asks for it — which collapses task creation to zero at P = 1 and to
   O(#steals x log(n/grain)) under load, while a stolen half re-enters
   the same discipline on the thief. The split-off half is pushed
   through the ordinary [fork_join_unit], so it follows the variant's
   normal exposure protocol (private push, thief notify, expose at the
   next poll — the poll each chunk boundary already provides). *)

(* Demand heuristic: split only when the pool actually has thieves and
   our deque holds nothing they could take. Both reads are cheap ([nw]
   is immutable, [is_empty] reads the owner-local size words); a deque
   that still holds unstolen tasks means supply already outruns demand
   and splitting further would just recreate the eager behaviour. *)
let want_split pool w =
  pool.nw > 1
  &&
  let (Instance ((module D), d)) = w.deque in
  D.is_empty d

(* Failure scope of one [parallel_for] call ([Sched_protocol.Scope]).
   When a body chunk raises, the first failure wins the flag CAS and
   parks its exception; sibling chunks — wherever they run — observe
   the flag at their chunk boundary and skip silently. The scope is per
   loop call, not pool-global: a caller that catches the loop's
   exception and starts a second loop must not inherit a stale flag.
   The scope's cancel cell is the spawning fiber's cancellation flag,
   captured at [parallel_for] entry: [Future.cancel] on the enclosing
   fiber cancels the loop's chunks wherever they run — the split halves
   carry the scope in their closures, so a thief executing one observes
   the same flag the owner does. *)

(* One grain-sized chunk under the scope's discipline. Pool-level
   cancellation ([Pool.cancel] / shutdown / a fault plan) and fiber
   cancellation (the scope's cancel cell) outrank the exception flag
   and raise [Cancelled] — they must unwind the whole computation, not
   just this loop. *)
let run_chunk pool w scope body lo hi =
  match Scope.gate scope ~pool_cancel:pool.cancel_requested with
  | Scope.Cancel ->
      w.metrics.cancelled_chunks <- w.metrics.cancelled_chunks + 1;
      let tr = pool.trace in
      if pool.traced then
        Trace.record_cancel tr ~worker:w.id ~time:(Trace.now tr) ~chunks:1;
      raise Cancelled
  | Scope.Skip ->
      w.metrics.cancelled_chunks <- w.metrics.cancelled_chunks + 1;
      let tr = pool.trace in
      if pool.traced then
        Trace.record_cancel tr ~worker:w.id ~time:(Trace.now tr) ~chunks:1
  | Scope.Run -> (
      match
        (* chunk bodies are scheduler frames: no suspension inside *)
        w.sched_depth <- w.sched_depth + 1;
        (match
           for i = lo to hi - 1 do
             body i
           done
         with
        | () -> w.sched_depth <- w.sched_depth - 1
        | exception e ->
            w.sched_depth <- w.sched_depth - 1;
            raise e)
      with
      | () -> ()
      | exception e -> Scope.fail scope e)

let rec lazy_for pool w scope grain body lo hi =
  if hi - lo <= grain then begin
    run_chunk pool w scope body lo hi;
    (* Poll point: bounds the latency of work-exposure requests for
       loop computations (the paper's constant-time guarantee). *)
    handle_pending pool w
  end
  else if want_split pool w then begin
    let mid = lo + ((hi - lo) / 2) in
    w.metrics.splits <- w.metrics.splits + 1;
    let tr = pool.trace in
    if pool.traced then
      Trace.record_split tr ~worker:w.id ~time:(Trace.now tr) ~iters:(hi - mid);
    fork_join_unit
      (fun () -> lazy_for_enter scope grain body lo mid)
      (fun () -> lazy_for_enter scope grain body mid hi)
  end
  else begin
    (* hi - lo > grain, so [mid < hi]: progress is guaranteed. *)
    let mid = lo + grain in
    run_chunk pool w scope body lo mid;
    handle_pending pool w;
    lazy_for pool w scope grain body mid hi
  end

(* A split half can run on whichever worker took it: rebind the context
   from the executing domain rather than capturing the splitter's. *)
and lazy_for_enter scope grain body lo hi =
  match Domain.DLS.get ctx_key with
  | None ->
      for i = lo to hi - 1 do
        body i
      done
  | Some (pool, w) -> lazy_for pool w scope grain body lo hi

let parallel_for ?grain ~start ~stop body =
  let n = stop - start in
  if n > 0 then begin
    match Domain.DLS.get ctx_key with
    | None ->
        for i = start to stop - 1 do
          body i
        done
    | Some (pool, w) ->
        let default_grain = max 1 (min 2048 (n / (8 * pool.nw))) in
        let grain = match grain with Some g -> max 1 g | None -> default_grain in
        let scope = Scope.make ~cancel:w.fscope () in
        lazy_for pool w scope grain body start stop;
        (* Every split half has joined (each went through
           [fork_join_unit]), so the winner's exception write is
           visible. *)
        if Scope.failed scope then
          match Scope.failure scope with Some e -> raise e | None -> assert false
  end

(* The documented ambient surface; the .mli exports these names only
   through [Ops]. *)
module Ops = struct
  let fork_join = fork_join

  let fork_join_unit = fork_join_unit

  let parallel_for = parallel_for

  let tick = tick

  let my_id = my_id

  let cancelled = cancelled

  let check_cancel = check_cancel

  let num_workers = num_workers

  let suspend = suspend

  let fork = fork
end
