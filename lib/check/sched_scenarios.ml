(* Scheduler-level scenarios: the deterministic mini-scheduler of
   [lib/check/sched_model] drives the *real* protocol kernels
   (sched_protocol.ml, recompiled in that library against the yielding
   shim) and the *real* split-deque code, so the explorer enumerates
   interleavings of the shipped frame/scope/future/injector protocols —
   not of a hand-written model of them.

   These trees are deeper than the deque scripts', so every scenario
   carries a small default preemption bound (CHESS-style): the per-push
   CI pass explores all schedules with few involuntary switches, which
   is where these protocols' bugs live, and the nightly sweep lifts the
   bound with LCWS_CHECK_PREEMPT=0. Each seeded kernel mutation below
   is caught *within* the bounded search — that is the self-test.

   Joins in the model are bounded, so [Gave_up] is a legal outcome the
   oracles account for (the schedule may simply never run the thief). *)

module E = Explore
module SA = Sim_atomic.A
module M = Lcws_sched_model.Sched_model
module P = Lcws_sched_model.Sched_protocol

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* Small default bound: enough switches for every seeded-mutant
   counterexample below (none needs more than two), small enough that
   the bounded trees stay sub-second. *)
let bound = Some 3

(* {2 Frame publication racing a steal}

   One fork/join whose child is stolen: the thief runs the frame's
   trampoline — the real [Frame.publish_with] — while the owner joins
   through pop-back / completion-flag paths. The protocol under test is
   result-then-flag publication order; [flip] seeds the early flag flip
   and the owner's consume can read the stale result. *)
let frame_steal ~flip ~name ~expect_violation =
  let mut = if flip then P.Frame.{ early_flip = true } else P.Frame.clean in
  {
    E.name;
    descr =
      "fork/steal/join of one frame child: the result must be published before the \
       completion flag"
      ^ if flip then " (early flip seeded, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let w = M.make_worker ~frame_mutation:mut 0 in
        let thief = M.make_worker 1 in
        let outcome = ref None in
        let owner () =
          let fr = M.fork w (fun () -> Obj.repr 42) in
          ignore (M.expose w);
          outcome := Some (M.join w fr)
        in
        let thief_fn () =
          match M.try_steal ~thief w with Some t -> t () | None -> ()
        in
        {
          E.threads = [| ("owner", owner); ("thief", thief_fn) |];
          signal = None;
          invariant = None;
          check =
            (fun () ->
              match !outcome with
              | None -> Error "owner never joined"
              | Some (M.Value v) ->
                  let n : int = Obj.obj v in
                  let* () =
                    if n = 42 then Ok ()
                    else
                      Error
                        (Printf.sprintf
                           "frame: join consumed a stale result %d (want 42)" n)
                  in
                  if M.frames_in_use w = 0 then Ok ()
                  else Error "frame: joined frame was not released"
              | Some (M.Exn e) ->
                  Error ("frame: join raised " ^ Printexc.to_string e)
              | Some M.Gave_up ->
                  (* Legal: the schedule starved the thief. The frame must
                     then still be accounted as in flight. *)
                  if M.frames_in_use w = 1 then Ok ()
                  else Error "frame: gave-up join must leave the frame acquired");
        });
  }

(* {2 Scope failure election racing a fiber cancel}

   Two chunks of one parallel loop gate and fail concurrently while a
   third lane requests fiber cancellation — the real
   [Scope.gate]/[fail_with] protocol. The per-step invariant is the
   election's whole point: once an exception wins the slot, no later
   failure may replace it. [clobber] seeds the CAS-less version. *)
exception Chunk_failed of int

let scope_cancel ~clobber ~name ~expect_violation =
  let mut = if clobber then P.Scope.{ clobber = true } else P.Scope.clean in
  {
    E.name;
    descr =
      "loop-scope first-failure election racing a fiber cancel: the winning exception \
       must never be clobbered"
      ^ if clobber then " (election skipped, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let pool_cancel = SA.make ~name:"pool_cancel" false in
        let fiber_cancel = SA.make ~name:"fiber_cancel" false in
        let scope = P.Scope.make ~name:"scope" ~cancel:fiber_cancel () in
        let chunk i () =
          match P.Scope.gate scope ~pool_cancel with
          | P.Scope.Run -> P.Scope.fail_with mut scope (Chunk_failed i)
          | P.Scope.Skip | P.Scope.Cancel -> ()
        in
        let canceller () = ignore (SA.exchange fiber_cancel true) in
        let invariant =
          let last = ref None in
          fun (_ : E.step) ->
            let cur = P.Scope.failure scope in
            match (!last, cur) with
            | Some e, Some e' when not (e == e') ->
                Error "scope: winning exception clobbered by a later failure"
            | _ ->
                last := cur;
                Ok ()
        in
        {
          E.threads =
            [| ("chunk-a", chunk 1); ("chunk-b", chunk 2); ("cancel", canceller) |];
          signal = None;
          invariant = Some invariant;
          check =
            (fun () ->
              if P.Scope.failed scope then
                match P.Scope.failure scope with
                | Some (Chunk_failed _) -> Ok ()
                | Some e ->
                    Error ("scope: unexpected exception " ^ Printexc.to_string e)
                | None -> Error "scope: flag set but no exception recorded"
              else Ok ());
        });
  }

(* {2 Future completion racing cancel and waiter registration}

   The one-word Pending→Done machine under its three real clients at
   once: the computation completing, a canceller completing with the
   cancellation outcome, and a waiter registering. Exactly one
   completion may win, and the waiter must run exactly once — whether
   the winner runs it or it ran itself on late registration.
   [blind] seeds the store-instead-of-CAS completion: two winners, or a
   freshly registered waiter silently dropped. *)
exception Cancelled

let future_race ~blind ~name ~expect_violation =
  let mut = if blind then P.Future_core.{ blind_complete = true } else P.Future_core.clean in
  {
    E.name;
    descr =
      "future completion CAS racing a cancel and a waiter registration: one winner, \
       the waiter resumes exactly once"
      ^ if blind then " (completion published blind, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let fut = P.Future_core.make ~name:"fut" () in
        let wins = ref 0 and resumes = ref 0 in
        let settle = function
          | None -> ()
          | Some waiters ->
              incr wins;
              List.iter (fun f -> f ()) waiters
        in
        let completer () = settle (P.Future_core.complete_with mut fut (Ok 1)) in
        let canceller () =
          P.Future_core.request_cancel fut;
          settle (P.Future_core.complete fut (Error Cancelled))
        in
        let waiter () = P.Future_core.add_waiter fut (fun () -> incr resumes) in
        {
          E.threads =
            [| ("complete", completer); ("cancel", canceller); ("waiter", waiter) |];
          signal = None;
          invariant = None;
          check =
            (fun () ->
              let* () =
                if !wins = 1 then Ok ()
                else
                  Error
                    (Printf.sprintf "future: %d completions won (want exactly 1)" !wins)
              in
              let* () =
                if !resumes = 1 then Ok ()
                else
                  Error
                    (Printf.sprintf "future: waiter resumed %d times (want exactly 1)"
                       !resumes)
              in
              let* () =
                if P.Future_core.is_done fut then Ok ()
                else Error "future: not done after both completers ran"
              in
              if P.Future_core.cancel_requested fut then Ok ()
              else Error "future: cancellation request lost");
        });
  }

(* {2 Injector drain racing submits}

   Two producers push while a consumer drains — the real CAS
   functional-queue injector, including the back→front swing. Oracle:
   nothing lost or duplicated, and each producer's entries drain in its
   push order. [blind] seeds the store-published swing, which silently
   drops a push that landed since the read. *)
let injector_drain ~blind ~name ~expect_violation =
  let mut = if blind then P.Injector.{ blind_swing = true } else P.Injector.clean in
  {
    E.name;
    descr =
      "MPSC injector: two producers racing the consumer's drain; exactly-once and \
       per-producer FIFO"
      ^ if blind then " (back-to-front swing published blind, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let q = P.Injector.create ~name:"injector" () in
        let got = ref [] in
        let prod_a () =
          ignore (P.Injector.push q 1);
          ignore (P.Injector.push q 2)
        in
        let prod_b () = ignore (P.Injector.push q 3) in
        let consumer () =
          for _ = 1 to 3 do
            match P.Injector.pop_with mut q with
            | Some x -> got := x :: !got
            | None -> ()
          done
        in
        {
          E.threads =
            [| ("producer-a", prod_a); ("producer-b", prod_b); ("consumer", consumer) |];
          signal = None;
          invariant = None;
          check =
            (fun () ->
              (* Quiescent drain of the leftovers: with no concurrent
                 pushes the seeded blind swing is indistinguishable from
                 the CAS, so the oracle's own pops cannot mask it. *)
              let rec drain acc =
                match P.Injector.pop_with mut q with
                | Some x -> drain (x :: acc)
                | None -> List.rev acc
              in
              let order = List.rev !got @ drain [] in
              let* () = Scenarios.exactly_once ~pushed:[ 1; 2; 3 ] ~got:order in
              let* () =
                Scenarios.increasing "producer-a"
                  (List.filter (fun x -> x <> 3) order)
              in
              let* () =
                if P.Injector.size q = 0 && P.Injector.is_empty q then Ok ()
                else Error "injector: drained queue reports residual size"
              in
              match P.Injector.close q with
              | [] -> Ok ()
              | l ->
                  Error
                    (Printf.sprintf "injector: close found %d entries after full drain"
                       (List.length l)));
        });
  }

(* {2 Shutdown racing an in-flight submission}

   The protocol the atomic-close injector exists for: a submitter's
   stop-check-then-push racing the pool's close-and-abort sweep and a
   worker's drain. Every accepted entry must settle exactly once — run
   by the drainer, or aborted (by the sweep, or by the submitter when
   its push is refused). [abort:false] seeds the shutdown that closes
   but drops the sweep, stranding an undrained entry. *)
let shutdown_race ~abort ~name ~expect_violation =
  {
    E.name;
    descr =
      "pool shutdown racing submit and drain: every accepted entry runs or aborts \
       exactly once"
      ^ if abort then "" else " (abort sweep dropped, on purpose)";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let p = M.make_pool () in
        let w = M.make_worker 0 in
        let ran = ref 0 and aborted = ref 0 in
        let submitted = ref None in
        let submitter () =
          let entry =
            M.{ ij_run = (fun () -> incr ran); ij_abort = (fun () -> incr aborted) }
          in
          submitted := Some (M.submit p entry)
        in
        let drainer () =
          if M.drain p w then
            match M.pop_own w with Some t -> t () | None -> ()
        in
        let closer () = M.shutdown ~skip_abort:(not abort) p in
        {
          E.threads =
            [| ("submit", submitter); ("drain", drainer); ("shutdown", closer) |];
          signal = None;
          invariant = None;
          check =
            (fun () ->
              let* () =
                if P.Injector.is_closed p.M.injector then Ok ()
                else Error "shutdown: injector left open"
              in
              match !submitted with
              | None -> Error "shutdown: submitter never ran"
              | Some M.Rejected ->
                  if !ran = 0 && !aborted = 0 then Ok ()
                  else Error "shutdown: rejected entry still ran or aborted"
              | Some M.Accepted ->
                  if !ran + !aborted = 1 then Ok ()
                  else
                    Error
                      (Printf.sprintf
                         "shutdown: accepted entry settled %d times (ran %d, aborted \
                          %d; want exactly once)"
                         (!ran + !aborted) !ran !aborted));
        });
  }

(* {2 Worker parking racing a task publication}

   The idle-worker park/wake protocol ([Sched_protocol.Park]): a parker
   announces itself (parked-count increment), re-checks for work, and
   blocks on a wake generation; a publisher stores a task and rings the
   doorbell — one load of the parked count, a generation bump only if
   somebody announced. The explorer enumerates every interleaving of
   the two, which is exactly the Dekker argument the protocol rests on:
   either the publisher's load sees the announce (ring fires), or the
   announce came later and the parker's re-check sees the published
   task. [skip] seeds the lost-wakeup mutant — announce straight to
   block, no re-check — whose counterexample is the fully sequential
   publisher-then-parker schedule (zero preemptions).

   The parker composes the kernel's primitive steps rather than calling
   [park_with]: the model's stand-in for blocking is a bounded spin on
   [should_block], and when that spin expires the parker must stay
   *announced* — a real sleeper still holds its slot in the parked
   count, so a publisher arriving later sees it and bumps. Retracting
   on expiry (as [park_with] does around a returning [block]) would
   make the late publisher's ring legitimately see zero and the oracle
   would flag the clean kernel. An expired parker also skips the
   post-wake re-check: it models a worker asleep forever, and letting
   it consume the task on the way out would mask the seeded mutant. *)
let park_wake ~skip ~name ~expect_violation =
  let mut = if skip then P.Park.{ skip_recheck = true } else P.Park.clean in
  {
    E.name;
    descr =
      "idle-worker park racing a task publication: the announce/re-check order must \
       close the lost-wakeup window"
      ^ if skip then " (re-check skipped, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let park = P.Park.make ~name:"park" () in
        let work = SA.make ~name:"work" false in
        let consumed = ref false in
        let lost = ref false in
        let ticket_r = ref 0 in
        (* Acquire, never observe: the re-check that justifies refusing
           to block must take responsibility for the task it saw. *)
        let acquire () = SA.compare_and_set work true false in
        let parker () =
          let ticket = P.Park.announce park in
          ticket_r := ticket;
          if (not mut.P.Park.skip_recheck) && acquire () then begin
            P.Park.retract park;
            consumed := true
          end
          else begin
            let spins = ref 0 in
            while P.Park.should_block park ~ticket && !spins < 2 do
              incr spins
            done;
            if P.Park.should_block park ~ticket then
              (* Still told to block after the bounded spin: the model's
                 "asleep forever". No retract, no consumption. *)
              lost := true
            else begin
              P.Park.retract park;
              if acquire () then consumed := true
            end
          end
        in
        let publisher () =
          SA.set work true;
          (* The owner-side ring: one load of the parked count; the
             generation bump (under the dock mutex in the real pool)
             only when somebody announced. *)
          if SA.get park.P.Park.parked > 0 then P.Park.bump park
        in
        {
          E.threads = [| ("parker", parker); ("publisher", publisher) |];
          signal = None;
          invariant = None;
          check =
            (fun () ->
              let expected_parked = if !lost then 1 else 0 in
              let* () =
                if P.Park.parked park = expected_parked then Ok ()
                else
                  Error
                    (Printf.sprintf "park: parked count %d at quiescence (want %d)"
                       (P.Park.parked park) expected_parked)
              in
              let* () =
                match (!consumed, SA.get work) with
                | true, true -> Error "park: task both consumed and still published"
                | false, false -> Error "park: task vanished without a consumer"
                | _ -> Ok ()
              in
              (* The oracle: a parker asleep past the spin bound is only
                 a lost wakeup if nothing will ever wake it — the task
                 is still published and the generation never moved. An
                 expiry with a later bump is the model artifact of a
                 slow doorbell, not a protocol violation. *)
              if !lost && SA.get work && P.Park.should_block park ~ticket:!ticket_r
              then
                Error
                  "park: lost wakeup — parker blocked forever while a task is published"
              else Ok ());
        });
  }

(* {2 Batch steal (steal-half) racing the owner's public pops}

   The scheduler-level shape of [steal_once] with [steal_batch > 1]: the
   owner exposes half of a deep deque, then takes public work back from
   the bottom while a thief batch-steals from the top, keeps the first
   task and pushes the extras into its *own* deque — the cross-deque
   transfer the real scheduler performs. The oracle is exactly-once over
   both deques; the per-step invariant is the split deque's ownership
   discipline, which must hold through every intermediate claim of the
   batch.

   [over_copy] seeds the unsound batch protocol (copy the slots, then
   claim them all with one CAS advancing [top] by [k]): the owner's
   plain public pop never touches [age], so a pop landing between the
   thief's copy and its CAS is double-taken — the counterexample needs
   one owner pop and two context switches, well inside the bound. The
   shipped incremental protocol (one CAS per claim, [public_bot]
   re-read in between) must survive every interleaving. *)

module Split = Lcws_sim_deque.Split_deque

module Split_steal_over_copy = Split.Make_mutant (struct
  let mutation = { Split.Mutation.none with Split.Mutation.steal_over_copy = true }
end)

let steal_half ~over_copy ~name ~expect_violation =
  let steal_many d ~limit ~into ~metrics =
    if over_copy then Split_steal_over_copy.steal_many d ~limit ~into ~metrics
    else Split.steal_many d ~limit ~into ~metrics
  in
  {
    E.name;
    descr =
      "steal-half batch transfer: owner pop_public_bottom racing a thief's multi-claim \
       steal_many, extras re-pushed into the thief's deque"
      ^ if over_copy then " (single-CAS batch claim seeded, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let metrics = Lcws_sync.Metrics.create () in
        let owner_d =
          Sim_atomic.with_prefix "w0." (fun () ->
              Split.create ~capacity:16 ~dummy:0 ~metrics ())
        in
        let thief_d =
          Sim_atomic.with_prefix "w1." (fun () ->
              Split.create ~capacity:16 ~dummy:0 ~metrics:(Lcws_sync.Metrics.create ()) ())
        in
        let pushed = [ 1; 2; 3; 4 ] in
        List.iter (fun i -> Split.push_bottom owner_d i) pushed;
        (* Expose everything: [pop_public_bottom]'s plain-take path
           repairs [bot <- public_bot], so the owner may only call it
           with an empty private part ([pop_own]'s discipline). Four
           public tasks give the thief a 2-claim window ([avail/2]). *)
        for _ = 1 to 4 do
          ignore (Split.update_public_bottom owner_d ~policy:Lcws_deque.Deque_intf.Expose_one)
        done;
        let og = ref [] and tg = ref [] in
        (* Three owner pops walk down to slot [top+1], inside the
           thief's 2-slot claim window ([avail/2 = 2]) — the overlap the
           seeded single-CAS batch double-takes. *)
        let owner () =
          for _ = 1 to 3 do
            match Split.pop_public_bottom owner_d with
            | Some x -> og := x :: !og
            | None -> ()
          done
        in
        let thief_m = Lcws_sync.Metrics.create () in
        let thief () =
          let into = Array.make 3 0 in
          match steal_many owner_d ~limit:4 ~into ~metrics:thief_m with
          | Lcws_deque.Deque_intf.Stolen first, extra ->
              (* [steal_once]'s shape: run the first task, push the rest
                 into the thief's own deque oldest-first... *)
              tg := first :: !tg;
              for i = 0 to extra - 1 do
                Split.push_bottom thief_d into.(i)
              done;
              (* ...where the thief's later own-pops find them. *)
              let continue = ref true in
              while !continue do
                match Split.pop_bottom thief_d with
                | Some x -> tg := x :: !tg
                | None -> continue := false
              done
          | (Empty | Abort | Private_work), _ -> ()
        in
        let drain d =
          let out = ref [] in
          let m = Lcws_sync.Metrics.create () in
          let continue = ref true in
          while !continue do
            match Split.pop_bottom d with
            | Some x -> out := x :: !out
            | None -> (
                match Split.pop_public_bottom d with
                | Some x -> out := x :: !out
                | None -> (
                    match Split.pop_top d ~metrics:m with
                    | Lcws_deque.Deque_intf.Stolen x -> out := x :: !out
                    | Lcws_deque.Deque_intf.Abort -> ()
                    | Lcws_deque.Deque_intf.Empty | Lcws_deque.Deque_intf.Private_work ->
                        continue := false))
          done;
          List.rev !out
        in
        let split_inv = Scenarios.split_invariant ~threads:2 owner_d in
        {
          E.threads = [| ("owner", owner); ("thief", thief) |];
          signal = None;
          invariant = Some split_inv;
          check =
            (fun () ->
              let got = List.rev !og @ List.rev !tg @ drain owner_d @ drain thief_d in
              let* () = Scenarios.exactly_once ~pushed ~got in
              (* The thief's claims walk the public window top-down, so
                 its kept-first + extras arrive oldest-first. *)
              Scenarios.increasing "thief batch" (List.rev !tg));
        });
  }

(* {2 Exposure-policy switch racing a steal request}

   The elastic pool's switch protocol ([Sched_protocol.Policy_switch]):
   the governor has already CAS-published a proposal (done in setup —
   the propose itself is a single CAS with no interesting
   interleavings), and the explorer enumerates the owner's adoption
   racing a thief's request delivery. The hazard is the half-switched
   deque: each exposure discipline has its own request channel (the
   [targeted] flag for the unsynchronized policy, [signal_pending] for
   the handshake), and a request deposited on a channel the owner has
   stopped polling is a lost steal — the thief backs off forever while
   the owner's public deque stays unexposed.

   The kernel closes the window from both sides, and each side is one
   seeded mutant here. Owner side: flip [active] {e first}, then drain
   the retired channel — the flip is the linearization point, so any
   deposit the drain misses happened after the flip and the thief's
   re-read sees the new word ([no_ack] drops the drain). Thief side:
   deposit, then re-read [active] and re-deposit on the new channel if
   the word moved — the Dekker dual of the owner's flip-then-drain
   ([stale_epoch] drops the re-read).

   The model gives each channel an SA cell manipulated inside the
   [drain]/[send] callbacks, exactly how the scheduler wires the kernel
   to its real flags. After adopting, the owner polls only the channel
   of the {e new} active mode — that selectivity is the whole reason
   the drain must exist. The oracle tolerates benign residue on the
   retired channel (a double-delivered request is a spurious wakeup,
   served idempotently by the real scheduler): the violation is a
   request that is nowhere — never served, and absent from the channel
   the owner now polls. *)
let policy_switch ~no_ack ~stale_epoch ~name ~expect_violation =
  let mut = P.Policy_switch.{ no_ack; stale_epoch } in
  {
    E.name;
    descr =
      "exposure-policy switch racing a steal request: the flip/drain and \
       deposit/re-read handshakes must strand no request on a retired channel"
      ^ (if no_ack then " (retired-channel drain dropped, on purpose)" else "")
      ^ if stale_epoch then " (thief's re-read dropped, on purpose)" else "";
    expect_violation;
    preempt = bound;
    spec =
      (fun () ->
        let ps = P.Policy_switch.make ~name:"ps" ~mode:P.Policy_switch.unsync () in
        (* Governor, ahead of the race: unsync -> handshake proposed. *)
        assert (P.Policy_switch.propose ps ~mode:P.Policy_switch.handshake);
        let chan_unsync = SA.make ~name:"chan_unsync" false in
        let chan_hand = SA.make ~name:"chan_hand" false in
        let chan mode =
          if mode = P.Policy_switch.handshake then chan_hand else chan_unsync
        in
        let served = ref 0 in
        (* Take, never observe: consuming a deposit commits the owner to
           serving it (exposing / answering the handshake). *)
        let take_and_serve mode = if SA.exchange (chan mode) false then incr served in
        let owner () =
          ignore
            (P.Policy_switch.adopt_with mut ps
               ~drain:(fun ~mode -> take_and_serve mode));
          (* The owner's next poll point: it now polls only the channel
             of the discipline it just adopted. *)
          take_and_serve (P.Policy_switch.active_mode ps)
        in
        let thief () =
          P.Policy_switch.request_with mut ps ~send:(fun ~mode ->
              SA.set (chan mode) true)
        in
        {
          E.threads = [| ("owner", owner); ("thief", thief) |];
          signal = None;
          invariant = None;
          check =
            (fun () ->
              let* () =
                if P.Policy_switch.acked ps then Ok ()
                else Error "switch: owner never adopted the proposed policy"
              in
              let* () =
                if P.Policy_switch.active_mode ps = P.Policy_switch.handshake
                then Ok ()
                else Error "switch: active mode is not the proposed handshake"
              in
              let* () =
                (* At most the deposit and one re-deposit can be served. *)
                if !served <= 2 then Ok ()
                else
                  Error
                    (Printf.sprintf "switch: request served %d times (want <= 2)"
                       !served)
              in
              let live = chan (P.Policy_switch.active_mode ps) in
              if !served = 0 && not (SA.get live) then
                Error
                  "switch: steal request lost — never served and stranded on a \
                   retired channel the owner no longer polls"
              else Ok ());
        });
  }

(* {2 The catalogue} *)

let all =
  [
    frame_steal ~flip:false ~name:"sched_frame_steal" ~expect_violation:false;
    scope_cancel ~clobber:false ~name:"sched_scope_cancel" ~expect_violation:false;
    future_race ~blind:false ~name:"sched_future_race" ~expect_violation:false;
    injector_drain ~blind:false ~name:"sched_injector_drain" ~expect_violation:false;
    shutdown_race ~abort:true ~name:"sched_shutdown_race" ~expect_violation:false;
    park_wake ~skip:false ~name:"sched_park_wake" ~expect_violation:false;
    steal_half ~over_copy:false ~name:"sched_steal_half" ~expect_violation:false;
    policy_switch ~no_ack:false ~stale_epoch:false ~name:"sched_policy_switch"
      ~expect_violation:false;
  ]

(* Self-test: one seeded kernel mutation per protocol, each caught within
   the default preemption bound. *)
let mutants =
  [
    frame_steal ~flip:true ~name:"mutant_frame_flip_first" ~expect_violation:true;
    scope_cancel ~clobber:true ~name:"mutant_scope_clobber" ~expect_violation:true;
    future_race ~blind:true ~name:"mutant_future_blind_complete" ~expect_violation:true;
    injector_drain ~blind:true ~name:"mutant_injector_blind_pop" ~expect_violation:true;
    shutdown_race ~abort:false ~name:"mutant_shutdown_drop_abort" ~expect_violation:true;
    park_wake ~skip:true ~name:"mutant_park_skip_recheck" ~expect_violation:true;
    steal_half ~over_copy:true ~name:"mutant_steal_over_copy" ~expect_violation:true;
    policy_switch ~no_ack:true ~stale_epoch:false ~name:"mutant_switch_no_ack"
      ~expect_violation:true;
    policy_switch ~no_ack:false ~stale_epoch:true
      ~name:"mutant_switch_stale_epoch" ~expect_violation:true;
  ]

let find name = List.find_opt (fun (s : E.scenario) -> s.E.name = name) (all @ mutants)
