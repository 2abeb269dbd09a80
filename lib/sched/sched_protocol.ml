(** The scheduler's synchronization protocols, isolated from its policy.

    Everything in this file is *protocol*: the exact sequence of atomic
    and plain accesses by which the scheduler's layers communicate
    across domains — a join frame publishing its child's outcome to a
    waiting owner, a loop scope electing the first failing chunk, a
    future's Pending→Done state machine racing waiter registration and
    cancellation, the external-submission injector racing shutdown.
    Policy — who runs what when, metrics, tracing, backoff — stays in
    [scheduler.ml].

    The split matters because this file is compiled twice, like the
    deque sources (see [atomic_shim.ml]): once here against the
    zero-cost production shim, and once in [lib/check/sched_model]
    against the effect-yielding [Sim_atomic.A], where a deterministic
    mini-scheduler runs these very kernels under the interleaving
    explorer. The checker therefore exercises the shipped protocol
    code, not a model of it.

    Each kernel carries a [mutation] record of seeded-bug knobs (same
    scheme as [Split_deque.Mutation]): a [*_with] entry point takes the
    knobs, the production names are the knobs-off specialization. The
    mutants exist so the checker's scenarios can prove they would catch
    the corresponding real bug; production code never passes them.

    No .mli on purpose: the record fields and state constants are the
    protocol's ABI with the scheduler (and with the checker's invariant
    callbacks), and hiding them behind [-opaque] would cost calls on
    the fork/join fast path. *)

module A = Atomic_shim

(** {2 Join frames}

    The result slot and completion word of one [fork_join] child. The
    cells and their ordering are the whole protocol:

    - the executor (a thief, or whoever drained the task) writes
      [result] {e then} flips [state] with an SC store — the owner's SC
      read of [state] orders the read of [result] after the write;
    - the owner consumes the outcome and resets [state] to pending, at
      which point (and not before) the frame may be recycled;
    - the un-stolen fast path never touches [state]/[result] at all: it
      pops the trampoline back by physical identity and runs [fn]
      inline with plain accesses only.

    The owner-only steps on [fn] — install the child before the push,
    read it back to run it, clear it on release — are each a single
    [A.write]/[A.read] on the cell, and the drivers write them as
    exactly that, with no helper here: [A]'s accessors are [external],
    so they inline at the call site even when this module is compiled
    [-opaque], where a helper function would cost the fork path a call.
    [fn] holds the child itself, any [unit -> 'b] stored with
    [Obj.repr] and run at [unit -> Obj.t] — [Obj.repr] is the identity,
    so its result arrives as the [Obj.t] the owner re-types.

    [task] is the preallocated trampoline the scheduler pushes in place
    of a per-call closure; it is scheduler wiring, not protocol state,
    and parametrized so the model scheduler can use its own task
    representation. *)
module Frame = struct
  let pending = 0

  let done_ = 1

  let exn_ = 2

  type 'task t = {
    state : int A.t; (* pending / done_ / exn_; padded, SC *)
    result : Obj.t A.plain; (* child outcome; valid once [state] flips *)
    fn : Obj.t A.plain; (* the child of the current use, run at unit -> Obj.t *)
    mutable task : 'task; (* preallocated trampoline for this frame *)
  }

  (** Seeded bugs. [early_flip]: publish the completion flag {e before}
      the result write — the owner can consume a stale result. *)
  type mutation = { early_flip : bool }

  let clean = { early_flip = false }

  let unit_obj = Obj.repr ()

  let make ?name ~task () =
    let cell s = match name with None -> s | Some p -> p ^ "." ^ s in
    {
      state = A.make ~name:(cell "state") pending;
      result = A.plain ~name:(cell "result") unit_obj;
      fn = A.plain ~name:(cell "fn") unit_obj;
      task;
    }

  let publish_value_with m fr v =
    if m.early_flip then begin
      ignore (A.exchange fr.state done_);
      A.write fr.result v
    end
    else begin
      A.write fr.result v;
      ignore (A.exchange fr.state done_)
    end

  let publish_exn_with m fr e =
    if m.early_flip then begin
      ignore (A.exchange fr.state exn_);
      A.write fr.result (Obj.repr e)
    end
    else begin
      A.write fr.result (Obj.repr e);
      ignore (A.exchange fr.state exn_)
    end

  let publish_value fr v = publish_value_with clean fr v

  let publish_exn fr e = publish_exn_with clean fr e

  (** Executor: run the installed child and publish its outcome —
      result or exception — through the flag, so a failing child still
      completes its frame and the owner's join can never hang. *)
  let publish_with m fr =
    match (Obj.obj (A.read fr.fn) : unit -> Obj.t) () with
    | v -> publish_value_with m fr v
    | exception e -> publish_exn_with m fr e

  let publish fr = publish_with clean fr

  let is_pending fr = A.get fr.state = pending

  (** Owner, once [is_pending] is false: take the outcome and reset the
      frame to pending for recycling. The SC read of [state] orders the
      executor's [result] write before the [result] read here. *)
  let consume fr =
    let st = A.get fr.state in
    let r = A.read fr.result in
    ignore (A.exchange fr.state pending);
    if st = exn_ then Error (Obj.obj r : exn) else Ok r
end

(** {2 Loop scopes}

    The first-failure-wins protocol of one [parallel_for] call. A chunk
    that raises CASes [flag] and — only if it won — parks its exception
    in [exn_slot]; sibling chunks observe the flag at their boundary
    and skip. [cancel] is the enclosing fiber's cancellation flag,
    captured at loop entry and carried by every split half, so
    cancelling the fiber cancels chunks wherever they run.

    [exn_slot] is deliberately plain: the winner writes it inside a
    chunk whose enclosing frame completion (an SC store) happens-before
    the owner's join, and the loop only reads it after every half has
    joined. The checker's scenario explores exactly this reasoning. *)
module Scope = struct
  type t = {
    flag : bool A.t; (* some chunk raised; siblings skip *)
    exn_slot : exn option A.plain; (* the winning exception *)
    cancel : bool A.t; (* the enclosing fiber's cancellation flag *)
  }

  (** Seeded bugs. [clobber]: skip the election — set the flag with a
      plain store and write the slot unconditionally, so a second
      failure overwrites the first one's exception. *)
  type mutation = { clobber : bool }

  let clean = { clobber = false }

  let make ?name ~cancel () =
    let cell s = match name with None -> s | Some p -> p ^ "." ^ s in
    {
      flag = A.make ~name:(cell "flag") false;
      exn_slot = A.plain ~name:(cell "exn") None;
      cancel;
    }

  let fail_with m t e =
    if m.clobber then begin
      ignore (A.exchange t.flag true);
      A.write t.exn_slot (Some e)
    end
    else if A.compare_and_set t.flag false true then A.write t.exn_slot (Some e)

  let fail t e = fail_with clean t e

  (** What a chunk boundary decides. Pool- and fiber-level cancellation
      outrank the failure flag: they unwind the whole computation
      ([Cancel] means raise), where a sibling's failure merely skips
      the chunk ([Skip]). *)
  type gate = Run | Skip | Cancel

  let gate t ~pool_cancel =
    if A.get pool_cancel || A.get t.cancel then Cancel
    else if A.get t.flag then Skip
    else Run

  let failed t = A.get t.flag

  let failure t = A.read t.exn_slot
end

(** {2 Future cores}

    The one-word state machine of a future:

    {v Pending [w1; ...; wn]  --complete-->  Done result v}

    Waiters CAS themselves into the pending list; the completer CASes
    the [Done] in — exactly one completion wins, which is where a
    cancellation racing the computation's own finish resolves — and
    receives the waiter list, FIFO, to run. A waiter arriving after
    completion runs immediately on its own thread. [cancel] is the
    fiber scope the scheduler installs while the future's computation
    runs; requesting cancellation sets it independently of the
    completion race. *)
module Future_core = struct
  type 'a state =
    | Pending of (unit -> unit) list (* waiter callbacks, newest first *)
    | Done of ('a, exn) result

  type 'a t = { st : 'a state A.t; cancel : bool A.t }

  (** Seeded bugs. [blind_complete]: publish [Done] with a plain store
      instead of the CAS — a waiter that registered between the read
      and the store is dropped (never resumed), and a racing second
      completer "wins" too. *)
  type mutation = { blind_complete : bool }

  let clean = { blind_complete = false }

  let make ?name () =
    let cell s = match name with None -> s | Some p -> p ^ "." ^ s in
    {
      st = A.make ~name:(cell "st") (Pending []);
      cancel = A.make ~name:(cell "cancel") false;
    }

  let rec add_waiter t cb =
    match A.get t.st with
    | Done _ -> cb ()
    | Pending ws as old ->
        if A.compare_and_set t.st old (Pending (cb :: ws)) then () else add_waiter t cb

  (** [Some waiters] (in FIFO registration order) iff this call won the
      completion race; the caller is now responsible for running
      them. *)
  let rec complete_with m t r =
    match A.get t.st with
    | Done _ -> None
    | Pending ws as old ->
        if m.blind_complete then begin
          A.set t.st (Done r);
          Some (List.rev ws)
        end
        else if A.compare_and_set t.st old (Done r) then Some (List.rev ws)
        else complete_with m t r

  let complete t r = complete_with clean t r

  let peek t = match A.get t.st with Done r -> Some r | Pending _ -> None

  let is_done t = match A.get t.st with Done _ -> true | Pending _ -> false

  let cancel_cell t = t.cancel

  let request_cancel t = ignore (A.exchange t.cancel true)

  let cancel_requested t = A.get t.cancel
end

(** {2 The external-submission injector}

    A lock-free multi-producer queue with an atomic close: the whole
    state — a front/back functional queue plus a [closed] flag — lives
    in one cell, updated by CAS on physically fresh records (no ABA).

    [close] is the shutdown linearization point and the reason this
    replaced the old mutex two-list injector: it atomically marks the
    queue closed {e and} returns every entry not yet drained, while any
    [push] serialized after it is refused ([false]) so the submitter
    aborts the entry itself. Under the old scheme, a submit's
    stop-check-then-push racing shutdown's drain could strand an entry
    — pushed after the drain, never run, never aborted. The checker's
    shutdown scenario enumerates exactly those interleavings.

    CAS loops here are safe under the explorer's bounded exploration: a
    failed CAS means another lane's update landed, so every retry
    follows global progress (a spinlock would instead livelock the
    DFS).

    {b Park-side invariant} (see {!Park}): a worker deciding whether it
    may park must re-check the injector by {e acquiring} — [pop], whose
    CAS linearizes the take — never by {e observing} ([is_empty]).
    Observation creates no obligation: a worker that sees "non-empty",
    declines to take the entry, and loops can interleave with every
    other worker doing the same, and once all of them eventually park
    the entry has been observed by everyone and owned by no one — the
    submitter's doorbell rang before anyone announced, so nobody is
    woken for it. A successful [pop] in the re-check instead transfers
    the entry to the re-checking worker, which then must not park until
    it has scheduled it. *)
module Injector = struct
  type 'a state = {
    front : 'a list; (* next out, oldest first *)
    back : 'a list; (* incoming, newest first *)
    closed : bool;
  }

  type 'a t = 'a state A.t

  (** Seeded bugs. [blind_swing]: publish the back→front swing with a
      plain store instead of the CAS — a push that landed since the
      read is overwritten, and its entry silently lost. *)
  type mutation = { blind_swing : bool }

  let clean = { blind_swing = false }

  let create ?name () = A.make ?name { front = []; back = []; closed = false }

  (** [false] iff the injector is closed: the entry was {e not}
      enqueued and the submitter must dispose of it. *)
  let rec push t x =
    let s = A.get t in
    if s.closed then false
    else if A.compare_and_set t s { s with back = x :: s.back } then true
    else push t x

  let rec pop_with m t =
    let s = A.get t in
    match s.front with
    | x :: front' ->
        if A.compare_and_set t s { s with front = front' } then Some x else pop_with m t
    | [] -> (
        match s.back with
        | [] -> None
        | back ->
            let swung = { s with front = List.rev back; back = [] } in
            if m.blind_swing then begin
              A.set t swung;
              pop_with m t
            end
            else begin
              ignore (A.compare_and_set t s swung);
              (* won or lost, the state moved: re-read. *)
              pop_with m t
            end)

  let pop t = pop_with clean t

  (** Atomically mark the injector closed and take every entry still
      queued, oldest first. Idempotent: later calls return []. After
      this, [push] refuses, so no entry can slip in behind the
      drain. *)
  let rec close t =
    let s = A.get t in
    if s.closed then []
    else if A.compare_and_set t s { front = []; back = []; closed = true } then
      s.front @ List.rev s.back
    else close t

  let size t =
    let s = A.get t in
    List.length s.front + List.length s.back

  let is_empty t =
    match A.get t with { front = []; back = []; _ } -> true | _ -> false

  let is_closed t = (A.get t).closed
end

(** {2 The parking protocol}

    The word-level half of in-job worker parking (the condvar half is
    [Parking_lot] in lib/sync, which this kernel never sees — it would
    be meaningless under the simulation shim). Two cells:

    - [parked]: how many workers have {e announced} intent to park.
      Incremented before the parker's final work re-check, decremented
      when it leaves the lot (woken or re-check hit). This is the word
      the producer side loads — once — on every doorbell site, after it
      has published the work the ring advertises: [parked > 0] means a
      wake is owed ([bump] plus a dock signal); with nobody parked the
      ring is that single load and nothing else. Like [Frame.fn], the
      drivers write that load as a direct [A.get] on the cell.
    - [gen]: the wake generation. A parker captures it as its ticket at
      announce time and blocks only while the generation still equals
      the ticket; a waker advances it (under the dock mutex) to
      invalidate every outstanding ticket.

    Lost-wakeup freedom is a Dekker-style argument over the SC total
    order of four accesses — the producer's task-publish store P and
    parked-count load L, the parker's announce increment I and re-check
    load R, with P before L and I before R program-ordered:

    - if L reads the count {e after} I, the producer sees [parked > 0]
      and rings (generation bump + signal), so the parker cannot sleep
      through it — the bump happens under the same mutex as the
      parker's predicate check;
    - if L reads the count {e before} I, then P precedes L precedes I
      precedes R in the SC order, so the re-check R observes the
      published task and the parker retracts instead of blocking.

    Dropping the re-check (the [skip_recheck] mutant) breaks the second
    leg: the task is published, the producer saw [parked = 0], and the
    parker blocks anyway — the classic lost wakeup. The checker's
    park/wake scenario must catch exactly this.

    The re-check itself must {e acquire} work, not observe it — see the
    park-side invariant note on {!Injector}. *)
module Park = struct
  type t = {
    parked : int A.t; (* announced parkers; producer side loads this *)
    gen : int A.t; (* wake generation; parker tickets against it *)
  }

  (** Seeded bugs. [skip_recheck]: announce and block without the final
      work re-check — reopens the publish-before-announce lost-wakeup
      window the protocol exists to close. *)
  type mutation = { skip_recheck : bool }

  let clean = { skip_recheck = false }

  let make ?name () =
    let cell s = match name with None -> s | Some p -> p ^ "." ^ s in
    { parked = A.make ~name:(cell "parked") 0; gen = A.make ~name:(cell "gen") 0 }

  (* The shim has no fetch_and_add; counters move by CAS loop. Safe
     under bounded exploration: a failed CAS follows another lane's
     landed update. *)
  let rec cas_add c d =
    let v = A.get c in
    if A.compare_and_set c v (v + d) then () else cas_add c d

  let parked t = A.get t.parked

  (** Parker step 1: publish intent and capture the wake-generation
      ticket. The increment must precede the work re-check — that
      ordering is the protocol. *)
  let announce t =
    cas_add t.parked 1;
    A.get t.gen

  (** Parker: leave the lot (after waking, or after the re-check found
      work). Every [announce] is balanced by exactly one [retract]. *)
  let retract t = cas_add t.parked (-1)

  (** The dock predicate: block while no wake has landed since the
      ticket was issued. Evaluated under the dock mutex. *)
  let should_block t ~ticket = A.get t.gen = ticket

  (** Waker: invalidate every outstanding ticket. Must run under the
      dock mutex (pass it as [Parking_lot.wake]'s [bump]) so it
      serializes against parkers' predicate checks. *)
  let bump t = cas_add t.gen 1

  (** The parker's announce → re-check → block → retract sequence, with
      the dock abstracted as callbacks so the checker can run the exact
      shipped sequence with a modeled dock. [recheck] must acquire (not
      observe) any work it finds. Returns [`Found] if the re-check hit
      and the parker never blocked, [`Woke] after a dock wake. *)
  let park_with m t ~recheck ~block =
    let ticket = announce t in
    if (not m.skip_recheck) && recheck () then begin
      retract t;
      `Found
    end
    else begin
      block ~ticket;
      retract t;
      `Woke
    end

  let park t ~recheck ~block = park_with clean t ~recheck ~block
end

(** {1 Exposure-policy switch (adaptive pools)}

    An adaptive pool lets a governor flip each worker between the
    unsynchronized exposure discipline (thieves raise a targeted flag
    the owner polls at task boundaries) and the signal-handshake
    discipline (thieves additionally raise a pending-signal flag served
    by an explicit handshake). The two disciplines deliver exposure
    requests over {e different channels}, so a switch has a dangerous
    window: a thief that read the old policy may deposit its request on
    the superseded channel just as the owner stops serving it — the
    request strands, the thief spins on a victim that will never
    expose, and at worst the pool deadlocks under joins.

    The kernel closes the window with an epoch-stamped policy word and
    a publish/ack handshake:

    - the {e word} packs [(epoch lsl 1) lor mode]; every accepted
      proposal bumps the epoch, so two successive words never compare
      equal even if a mode ever repeated;
    - the governor writes a new word into [proposed] ({!propose}),
      refusing while the previous proposal is still unacknowledged, so
      at most one switch is ever in flight per worker;
    - the owner acknowledges at a poll point ({!adopt_with}): it first
      {e flips} [active] to the proposed word — from here on thieves
      route to the new channel — and only {e then} drains the
      superseded channel, serving any request already deposited there;
    - a thief sends fenced ({!request_with}): load [active] (w1),
      deposit on w1's channel, re-load [active] (w2), and re-issue on
      w2's channel if the word moved underneath it.

    The channels themselves are the caller's (the scheduler's
    [targeted]/[signal_pending] flags; atomic cells in the checker's
    model), abstracted as the [drain]/[send] callbacks — the same
    discipline as {!Park}'s dock. The kernel owns only the policy word
    pair and the order in which the callbacks run relative to its own
    accesses; that order is the protocol.

    Why no request is ever stranded is a Dekker-style argument over the
    SC order of four accesses — the owner's flip store F and drain load
    D (F before D program-ordered), and the thief's deposit store S and
    re-read load R (S before R):

    - if R reads [active] {e before} F, the thief saw the old word and
      left its deposit on the old channel; but then S precedes R
      precedes F precedes D, so the drain D observes the deposit and
      serves it;
    - if R reads [active] {e after} F, the thief observes the moved
      word and re-issues on the new channel, which the owner's normal
      poll serves from then on.

    Flip-before-drain is essential: draining {e first} and flipping
    after reopens the window (a deposit landing between the drain and
    the flip sits on a channel the owner has already swept and will
    never sweep again, while the thief's re-read still sees the old
    word and does not re-issue). The two seeded mutants break one leg
    each: [no_ack] publishes the flip but skips the drain (kills the
    first leg); [stale_epoch] trusts the pre-deposit read and skips the
    re-read (kills the second). The checker's policy-switch scenario
    must catch exactly these. *)
module Policy_switch = struct
  (* Channel indices double as the mode encoding. *)
  let unsync = 0
  let handshake = 1

  let word ~epoch ~mode = (epoch lsl 1) lor (mode land 1)
  let mode_of w = w land 1
  let epoch_of w = w lsr 1

  type t = {
    proposed : int A.t; (* governor-written policy word *)
    active : int A.t; (* owner-written ack; thieves route by this *)
  }

  (** Seeded bugs. [no_ack]: the owner flips [active] but never drains
      the superseded channel — an in-flight request deposited under the
      old policy strands forever. [stale_epoch]: the thief trusts its
      pre-deposit read of the policy word and skips the post-deposit
      re-read — a deposit racing the flip strands on the old channel
      with nobody left to re-issue it. *)
  type mutation = { no_ack : bool; stale_epoch : bool }

  let clean = { no_ack = false; stale_epoch = false }

  let make ?name ?(mode = unsync) () =
    let cell s = match name with None -> s | Some p -> p ^ "." ^ s in
    let w0 = word ~epoch:0 ~mode in
    { proposed = A.make ~name:(cell "proposed") w0; active = A.make ~name:(cell "active") w0 }

  let active_word t = A.get t.active

  let active_mode t = mode_of (A.get t.active)

  (** Has the owner acknowledged the latest proposal? *)
  let acked t = A.get t.proposed = A.get t.active

  (** Governor: publish a switch to [mode]. Refused (returns [false])
      while the previous proposal is unacked or when [mode] is already
      the proposed mode, so at most one switch is in flight and epochs
      only ever move forward. The CAS keeps two racing governors from
      double-bumping (the pool runs one governor claim at a time, but
      the kernel does not rely on it). *)
  let propose t ~mode =
    let a = A.get t.active in
    let p = A.get t.proposed in
    if p <> a || mode_of p = mode land 1 then false
    else A.compare_and_set t.proposed p (word ~epoch:(epoch_of p + 1) ~mode)

  (** Owner poll point: acknowledge a pending proposal. Flips [active]
      first — the ack doubles as the re-route point for thieves — and
      only then runs [drain ~mode:old_mode], which must sweep the old
      discipline's channel and serve any request already deposited
      there (consuming the flag with a take, not a blind clear, so a
      deposit racing the sweep is never wiped unserved). Returns [true]
      iff a switch was adopted. *)
  let adopt_with m t ~drain =
    let p = A.get t.proposed in
    let a = A.get t.active in
    if p = a then false
    else begin
      A.set t.active p;
      (* Drain AFTER the flip; see the module comment for why the other
         order loses requests. *)
      if not m.no_ack then drain ~mode:(mode_of a);
      true
    end

  let adopt t ~drain = adopt_with clean t ~drain

  (** Thief: deposit an exposure request on the channel the current
      policy designates, fenced against a concurrent switch — load the
      word, [send ~mode] on its channel, re-load, and re-issue on the
      new channel if the word moved underneath. [send] must be
      idempotent (raising an already-raised flag is a no-op), and a
      re-issued send must not be swallowed by a one-outstanding-request
      throttle — the first deposit may be the one that strands. *)
  let request_with m t ~send =
    let w1 = A.get t.active in
    send ~mode:(mode_of w1);
    if not m.stale_epoch then begin
      let w2 = A.get t.active in
      if w2 <> w1 then send ~mode:(mode_of w2)
    end

  let request t ~send = request_with clean t ~send
end
