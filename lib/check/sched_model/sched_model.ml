(* The deterministic mini-scheduler: just enough of [scheduler.ml]'s
   policy — per-worker frame pools, the join discipline, the
   submit/drain/shutdown wiring — to drive the *real* protocol kernels
   (sched_protocol.ml, recompiled in this library against the yielding
   shim) over the *real* split-deque code (lib/check/deques), so the
   explorer can enumerate interleavings of 2-3 model workers running
   the shipped frame/scope/future/injector protocols.

   What is deliberately absent: domains, condvars, backoff, tracing,
   fault injection — everything whose only role is performance or
   observability. What is deliberately faithful, because the checker's
   value lies exactly there:

   - [fork]/[join] mirror [fork_join]: install the child in a pooled
     frame, push the frame's preallocated trampoline, join by popping
     it back (physical-identity fast path that never touches
     state/result) or — stolen — by waiting on the completion flag and
     [consume]ing;
   - a trampoline runs [Frame.publish_with]: execute the installed
     child, publish result-then-flag (the mutant knob flips first);
   - [submit]/[drain]/[shutdown] mirror [Pool.submit]/[drain_injector]/
     [Pool.shutdown]: stop precheck, push-or-abort on a closed
     injector, drain into the drainer's deque, close-and-abort sweep.

   Joins are bounded ([polls]): under exploration a schedule may simply
   never run the thief, so a model owner must be able to give up —
   [Gave_up] is a legal outcome the scenarios' oracles account for, not
   a failure. *)

module A = Atomic_shim
module P = Sched_protocol
module Sim = Lcws_check_sim.Sim_atomic
module Split = Lcws_sim_deque.Split_deque
open Lcws_deque.Deque_intf

type task = unit -> unit

type worker = {
  id : int;
  deque : task Split.t;
  metrics : Lcws_sync.Metrics.t;
  frames : task P.Frame.t array; (* LIFO frame pool... *)
  mutable frame_top : int; (* ...and its stack pointer *)
}

(* Cells created here get a "w<id>." name prefix, so traces read
   "w0.state"/"w1.age" and per-worker invariants can tell deques
   apart. *)
let make_worker ?(frames = 4) ?(capacity = 16) ?(frame_mutation = P.Frame.clean) id =
  Sim.with_prefix
    (Printf.sprintf "w%d." id)
    (fun () ->
      let metrics = Lcws_sync.Metrics.create () in
      let deque = Split.create ~capacity ~dummy:ignore ~metrics () in
      let mk _ =
        let fr = P.Frame.make ~task:ignore () in
        fr.P.Frame.task <- (fun () -> P.Frame.publish_with frame_mutation fr);
        fr
      in
      { id; deque; metrics; frames = Array.init frames mk; frame_top = 0 })

let acquire w =
  let top = w.frame_top in
  if top >= Array.length w.frames then failwith "Sched_model: frame pool exhausted";
  w.frame_top <- top + 1;
  w.frames.(top)

let release w fr =
  let top = w.frame_top - 1 in
  assert (w.frames.(top) == fr);
  w.frame_top <- top

let frames_in_use w = w.frame_top

(* [fork_join]'s fork half: acquire a frame, install this use's child,
   push the preallocated trampoline in place of a per-call closure. *)
let fork w (g : unit -> Obj.t) =
  let fr = acquire w in
  A.write fr.P.Frame.fn (Obj.repr g);
  Split.push_bottom w.deque fr.P.Frame.task;
  fr

(* Owner-side lookup, [pop_own]'s shape: private part first, then the
   public part. *)
let pop_own w =
  match Split.pop_bottom w.deque with
  | Some _ as r -> r
  | None -> Split.pop_public_bottom w.deque

(* [handle_signal]'s core: transfer one private task to the public
   part, so a thief lane has something to steal. *)
let expose w = Split.update_public_bottom w.deque ~policy:Expose_one

(* A thief's probe of [victim]'s deque; the caller runs the task (which
   for a frame trampoline executes and publishes the child). *)
let try_steal ~thief victim =
  match Split.pop_top victim.deque ~metrics:thief.metrics with
  | Stolen t -> Some t
  | Empty | Abort | Private_work -> None

type outcome = Value of Obj.t | Exn of exn | Gave_up

(* [join_frame]'s discipline. Fast path: the frame's own trampoline
   pops straight back (physical identity) and the child runs inline —
   state/result never touched. Foreign task above it: run and retry.
   Nothing to pop: the child was stolen; wait (bounded) for the
   completion flag, then consume and recycle. On [Gave_up] the frame
   stays acquired — the child is still in flight somewhere. *)
let join ?(polls = 4) w fr =
  let rec loop () =
    match pop_own w with
    | Some t ->
        if t == fr.P.Frame.task then begin
          match (Obj.obj (A.read fr.P.Frame.fn) : unit -> Obj.t) () with
          | v ->
              release w fr;
              Value v
          | exception e ->
              release w fr;
              Exn e
        end
        else begin
          t ();
          loop ()
        end
    | None ->
        let rec wait n =
          if not (P.Frame.is_pending fr) then begin
            let r = P.Frame.consume fr in
            release w fr;
            match r with Ok v -> Value v | Error e -> Exn e
          end
          else if n <= 0 then Gave_up
          else wait (n - 1)
        in
        wait polls
  in
  loop ()

(* {2 The model pool: external submission and shutdown} *)

(* As in the scheduler: the task to run, and what to do with it if the
   pool shuts down before any worker drained it. *)
type injected = { ij_run : task; ij_abort : unit -> unit }

type pool = {
  injector : injected P.Injector.t;
  stop : bool A.t; (* [pool.stop]: no new submissions *)
  cancel : bool A.t; (* [pool.cancel_requested] *)
}

let make_pool () =
  {
    injector = P.Injector.create ~name:"injector" ();
    stop = A.make ~name:"stop" false;
    cancel = A.make ~name:"cancel" false;
  }

type submit_result =
  | Accepted (* enqueued, or refused-and-aborted: the future settles *)
  | Rejected (* [Pool.submit]'s stop precheck: invalid_arg, nothing created *)

(* [Pool.submit] + [inject]: the stop precheck, then the push; a push
   refused by a concurrently-closed injector aborts the entry on the
   submitter, which is precisely the protocol under test in the
   shutdown scenario. *)
let submit p entry =
  if A.get p.stop then Rejected
  else if P.Injector.push p.injector entry then Accepted
  else begin
    entry.ij_abort ();
    Accepted
  end

(* [drain_injector]: probe, pop, and hand the entry to the drainer's
   own deque so it flows through the ordinary push/pop/steal
   protocol. *)
let drain p w =
  if P.Injector.is_empty p.injector then false
  else
    match P.Injector.pop p.injector with
    | None -> false
    | Some e ->
        Split.push_bottom w.deque e.ij_run;
        true

(* [Pool.shutdown]'s injector half: elect one closer, request
   cancellation, close the injector and abort everything it returns.
   [skip_abort] is the seeded mutant — a shutdown that closes but drops
   the abort sweep strands every undrained future. *)
let shutdown ?(skip_abort = false) p =
  if A.compare_and_set p.stop false true then begin
    ignore (A.exchange p.cancel true);
    match P.Injector.close p.injector with
    | [] -> ()
    | entries -> if not skip_abort then List.iter (fun e -> e.ij_abort ()) entries
  end
