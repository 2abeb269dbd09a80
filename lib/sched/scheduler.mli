(** The work-stealing runtime: WS baseline plus the four LCWS variants.

    This is a shared-memory, multi-domain implementation of the paper's
    schedulers (Listings 1 and 3):

    - {!Ws}: classic work stealing over Chase-Lev deques (the Parlay
      baseline);
    - {!Uslcws}: user-space LCWS (Section 3) — the [targeted] flag is
      polled only at task boundaries, inside [get_task];
    - {!Signal}: signal-based LCWS (Section 4) — exposure requests are
      handled at constant-interval poll points ({!tick}), the OCaml
      equivalent of the paper's [pthread_kill]/handler pair (the handler
      body runs on the victim's own domain; see DESIGN.md §2.2). Uses the
      Section 4 signal-safe [pop_bottom];
    - {!Cons}: Conservative Exposure (Section 4.1.1) — expose only when
      at least two private tasks exist;
    - {!Half}: Expose Half (Section 4.1.2) — expose [round(r/2)] tasks.

    The scheduler is generic over the deque: each worker owns a
    {!Lcws_deque.Deque_intf.instance}, a first-class module paired with
    its state, so alternative deques ({!lace_impl}, {!private_impl}) plug
    into the identical runtime for apples-to-apples comparison.

    Typical use:
    {[
      let pool = Scheduler.Pool.create ~num_workers:4 ~variant:Signal () in
      let result = Scheduler.Pool.run pool (fun () ->
        let a, b = Scheduler.fork_join (fun () -> fib 30) (fun () -> fib 30) in
        a + b)
      in
      Scheduler.Pool.shutdown pool
    ]} *)

(** Raised out of a job (or a cancellation point inside one) when the
    running job was cancelled — by {!Pool.cancel}, by {!Pool.shutdown}
    racing an in-flight job, or by a fault plan's [cancel_at].

    Cancellation is cooperative and best-effort: it is observed at
    {!parallel_for} chunk boundaries, at fork/join joins, on the stolen
    execution path, and wherever user code calls {!check_cancel}. A job
    with none of those (one long sequential computation) is not
    cancellable. Cancellation never breaks the frame protocol: a
    cancelled child still completes its join frame — exceptionally — so
    joins cannot hang and the frame pool fully recycles. *)
exception Cancelled

type variant = Ws | Uslcws | Signal | Cons | Half

val all_variants : variant list

val lcws_variants : variant list

val variant_name : variant -> string

(** Short label used in the paper's plots: WS, User, Signal, Cons, Half. *)
val variant_label : variant -> string

val variant_of_string : string -> variant option

type task = unit -> unit

(** {2 The effects-based task core}

    Every task a worker executes runs inside an effect handler (one
    static handler, installed by the worker run loop — no per-task
    allocation, so the fork/join fast path keeps its minor-word budget).
    Code running on a worker may perform:

    - [Fork t]: push [t] on the current worker's deque, continue
      immediately. The primitive {!fork_join} is sugar over this shape.
    - [Suspend register]: capture the current continuation as a parked
      {e fiber} and return the worker to its run loop. [register] is
      called with a [resume] closure that schedules the fiber's
      resumption; it is one-shot (extra calls are silently ignored) and
      safe from any thread — from a worker of the same pool it pushes
      the resumption on that worker's deque, from anywhere else it goes
      through the external-submission injector that workers drain at
      their steal points.

    Suspension is only legal at scheduler depth 0: inside a
    {!fork_join} branch or a {!parallel_for} chunk the continuation
    would close over worker-local scheduler state (the join-frame pool,
    the loop scope) and cannot migrate, so a [Suspend] performed there
    is refused with [Invalid_argument] raised at the perform site.
    {!Future.await} and {!Ops.suspend} degrade gracefully instead:
    at depth > 0 they {e help} (run other tasks on the spot) until
    resumed, with the same observable semantics. *)

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Fork : task -> unit Effect.t

(** {2 Pluggable deques}

    A [deque_impl] is a first-class module satisfying
    {!Lcws_deque.Deque_intf.DEQUE} at element type [task]. *)

type deque_impl = task Lcws_deque.Deque_intf.impl

(** Chase-Lev (the WS baseline's deque). *)
val chase_lev_impl : deque_impl

(** The paper's split deque (public/private parts); default for all LCWS
    variants. *)
val split_deque_impl : deque_impl

(** Lace-style split deque (related work). Sequential specification:
    usable only with [num_workers:1]. *)
val lace_impl : deque_impl

(** Fully private deque with explicit top-popping (related work).
    Sequential specification: usable only with [num_workers:1]. *)
val private_impl : deque_impl

val all_deque_impls : deque_impl list

val deque_impl_name : deque_impl -> string

(** Recognizes the [deque_impl_name]s: "chase_lev", "split", "lace",
    "private" (case-insensitive). *)
val deque_impl_of_string : string -> deque_impl option

(** The paper's pairing: [Ws] on Chase-Lev, LCWS variants on the split
    deque. *)
val default_deque_impl : variant -> deque_impl

(** {2 Futures}

    A first-class handle on an asynchronous computation. The state
    machine is one atomic word: [Pending waiters] until exactly one
    completion — the computation's own outcome, or a {!cancel} — CASes
    in [Done result] and wakes every waiter.

    Created by {!spawn} (from inside a job) or {!Pool.submit} (from
    anywhere, including non-worker threads); awaited from anywhere:

    - a fiber at suspension-legal depth parks its continuation and
      frees its worker;
    - a worker inside a [fork_join] branch or loop chunk helps with
      other tasks until the future settles;
    - an external thread blocks — and, when the pool has no job in
      flight, elects itself the driver of worker 0 so progress never
      depends on a [Pool.run] being active (essential for
      single-worker pools, which have no helper domains). *)
module Future : sig
  type 'a t

  (** Start [f] as a fiber on the calling worker's pool: the task is
      pushed on the calling worker's deque, stealable like any other.
      Outside a pool, [f] runs immediately (sequential fallback) and
      the future is born settled.

      Futures spawned inside a job should be awaited (or cancelled)
      before the job returns; a spawned task still sitting in a deque
      when the pool shuts down is drained, its future never
      completing. *)
  val spawn : (unit -> 'a) -> 'a t

  (** Wait for the future's result; re-raises its exception. See the
      module header for what "wait" means in each context. *)
  val await : 'a t -> 'a

  (** [Some result] if settled, [None] while pending; never blocks. *)
  val try_await : 'a t -> ('a, exn) result option

  (** Request cancellation: completes the future {e now} with
      {!Cancelled} (if it was still pending — first completion wins)
      and raises the fiber's cancellation flag, which the running
      computation observes at its cancellation points
      ({!parallel_for} chunk boundaries, {!Ops.cancelled} /
      {!Ops.check_cancel}) and unwinds. Cancellation of the
      computation itself is therefore cooperative and best-effort,
      exactly like the PR 5 loop-scope protocol it rides. *)
  val cancel : 'a t -> unit

  (** Both results, or the first error (left-to-right priority, like
      {!fork_join}). *)
  val both : 'a t -> 'b t -> ('a * 'b) t

  (** Whichever settles first wins; the loser is {!cancel}led. *)
  val first : 'a t -> 'a t -> 'a t

  (** All results in order, or the first error in list order. An empty
      list is already settled with [[]]. *)
  val all : 'a t list -> 'a list t
end

module Pool : sig
  type t

  (** [create ~num_workers ~variant ()] spawns [num_workers - 1] helper
      domains; the domain that calls {!run} acts as worker 0.

      @param seed deterministic seed for victim selection (default 42).
      @param deque_capacity per-worker deque slots (default 65536).
      @param deque deque implementation for every worker (default:
        {!default_deque_impl} of the variant).
      @param steal_policy victim-selection policy
        ({!Lcws_sync.Victim_policy.policy}, default [Near_first]). On
        the default flat topology every victim is at the same distance,
        so [Near_first] degenerates to uniform probing plus the
        last-successful-victim affinity re-probe; pass [Uniform] for
        the exact classical stream (byte-compatible with the scheduler
        before this knob existed) when running A/B comparisons.
      @param topology square distance matrix: [topology.(i).(j)] is the
        migration-cost multiplier of worker [i] stealing from worker
        [j]. Zero exactly on the diagonal, non-negative elsewhere
        (validated). Defaults to {!Lcws_sync.Victim_policy.flat};
        {!Lcws_sync.Victim_policy.clustered} builds the multi-socket
        shape. Drives [Near_first] probing and the
        [near_steals]/[far_steals] metrics.
      @param steal_batch upper bound on tasks migrated per steal
        episode (default 8, must be >= 1). A thief's [steal_many] takes
        at most [min steal_batch (ceil (exposed / 2))] tasks — the
        classical steal-half rule capped by the batch knob. [1] gives
        classical steal-one for A/B runs. The first task is run (or
        kept) by the thief; the rest are pushed to its own deque
        oldest-first, so program order is preserved for later thieves.
      @param trace event sink; pass a {!Lcws_trace.Trace.create}d tracer
        to record scheduler events. Defaults to {!Lcws_trace.Trace.null},
        which keeps every record call a single predictable branch.
      @param fault a deterministic fault plan ({!Lcws_fault.Fault.plan})
        to thread through the scheduler's poll points, signal handling,
        steal attempts and task execution. Omitted (the default), every
        fault hook compiles down to one load-and-branch on a plain bool
        — benchmarks cannot tell the difference.
      @param adaptive elastic exposure policy (default false): a
        governor ({!Policy_governor}) periodically samples the pool's
        steal pressure and switches each worker online between the
        unsynchronized discipline (lazy task-boundary exposure, [Uslcws])
        and the signal handshake (the pool's own signal variant, or
        [Signal] for a [Uslcws] pool). Workers start in the mode
        matching [variant], so an adaptive pool behaves exactly like
        its static counterpart until the first accepted switch. The
        switch itself is the checker-verified
        [Sched_protocol.Policy_switch] publish/ack protocol — a thief's
        in-flight exposure request is never stranded by a concurrent
        switch. Requires a synchronization-light [variant] (not [Ws]).
      @param adaptive_config governor thresholds and sampling epoch
        (default {!Policy_governor.default_config}; ignored unless
        [adaptive]).
      @raise Invalid_argument if [deque] is a sequential specification and
        [num_workers > 1], if [trace] was created for fewer than
        [num_workers] workers, or if [adaptive] is requested with
        [variant = Ws]. *)
  val create :
    ?seed:int64 ->
    ?deque_capacity:int ->
    ?deque:deque_impl ->
    ?trace:Lcws_trace.Trace.t ->
    ?fault:Lcws_fault.Fault.plan ->
    ?steal_policy:Lcws_sync.Victim_policy.policy ->
    ?topology:int array array ->
    ?steal_batch:int ->
    ?adaptive:bool ->
    ?adaptive_config:Policy_governor.config ->
    num_workers:int ->
    variant:variant ->
    unit ->
    t

  (** Execute a parallel job. The callback runs as worker 0's root
      fiber — under the effect handler, so it may use the whole {!Ops}
      surface including {!Future.await} at top level (the root parks
      and worker 0 keeps scheduling until its continuation completes,
      wherever it resumed). Exceptions raised by the job propagate: an
      exception in a forked branch — wherever it ran — reaches the
      [fork_join] caller, an exception in a [parallel_for] body cancels
      the loop's remaining chunks and re-raises at the loop (first
      failure wins), and both ultimately unwind out of [run] with every
      frame joined and every deque empty. One job at a time; any
      pending cancellation request is cleared on entry.

      Not reentrant: calling [run] from one of this pool's own workers
      (e.g. from a submitted task) raises [Invalid_argument]
      immediately — the calling domain already is a worker, and
      impersonating worker 0 on top of it would hand two domains the
      same deque. Use {!Future.spawn} or {!submit} there instead.
      Nesting across {e distinct} pools is fine. *)
  val run : t -> (unit -> 'a) -> 'a

  (** [submit pool f] schedules [f] as a fiber on [pool] from any
      thread — a worker of this pool (direct deque push), a worker of
      another pool, or a plain non-worker thread (MPSC injector,
      drained by workers at their steal points; parked helpers are
      woken). No [run] needs to be active: helpers serve the pool
      while submitted futures are outstanding, and on a single-worker
      pool an external {!Future.await} drives worker 0 itself. Raises
      [Invalid_argument] after {!shutdown}; tasks still in the injector
      at shutdown have their futures completed with {!Cancelled}. *)
  val submit : t -> (unit -> 'a) -> 'a Future.t

  (** Request cancellation of the in-flight job: its cancellation points
      raise {!Cancelled}, which unwinds out of {!run}. A no-op between
      jobs (the flag is cleared when the next job starts). Safe from any
      domain. *)
  val cancel : t -> unit

  (** Terminate and join the helper domains. Cancels the in-flight job
      (if any) first, waits for it to unwind, then drains any leftover
      deque tasks (counted in [drained_tasks]). Idempotent and safe to
      race from several domains: exactly one caller tears the pool down.
      The pool is unusable after. *)
  val shutdown : t -> unit

  val num_workers : t -> int

  val variant : t -> variant

  (** Was the pool created with [?adaptive:true]? *)
  val adaptive : t -> bool

  (** Racy snapshot of each worker's current exposure mode (exact
      between jobs). On a static pool, derived from the variant. *)
  val worker_modes : t -> Policy_governor.mode array

  (** The trace sink passed at [create] ({!Lcws_trace.Trace.null} if
      none). *)
  val trace : t -> Lcws_trace.Trace.t

  (** Name of the deque implementation the pool runs on. *)
  val deque_name : t -> string

  (** Sum of all per-worker counters since the last [reset_metrics].

      Exact once {!run} has returned: called while no job (and no
      external awaiter) holds the pool, [metrics], [per_worker_metrics]
      and [reset_metrics] first wait until every helper has finished the
      last job and parked between jobs, where it touches no counter. So
      [run]; [reset_metrics] reads all zeros until the next job, and
      [parks = wakes + spurious_wakes] holds without a {!shutdown}. The
      wait gives way to a concurrent {!shutdown} and to outstanding
      {!submit} work, which helpers keep serving. A helper still running
      a task, such as a spawned future the job never awaited, is waited
      for up to one second; past that, and when called from one of the
      pool's own workers, the read is a racy snapshot, as during a job. *)
  val metrics : t -> Lcws_sync.Metrics.t

  val per_worker_metrics : t -> Lcws_sync.Metrics.t array

  val reset_metrics : t -> unit

  (** {2 Quiescent-state introspection}

      Exact when no job is running (between {!run}s or after
      {!shutdown}); racy snapshots otherwise. The chaos harness asserts
      both are 0 after every run, including runs that ended in an
      injected exception or a cancellation. *)

  (** Tasks currently sitting in the workers' deques. *)
  val outstanding_tasks : t -> int

  (** Join frames currently acquired across all workers' frame pools; 0
      means every fork/join fully recycled its frame. *)
  val frames_in_use : t -> int

  (** {!Lcws_deque.Deque_intf.check_size_invariants} over every worker's
      deque; the error names the worker and the accessors that
      disagree. *)
  val check_deque_invariants : t -> (unit, string) result

  (** The fault plan passed at [create], if any. *)
  val fault_plan : t -> Lcws_fault.Fault.plan option
end

(** {2 The ambient operations: [Ops]}

    The documented surface for code running inside a job (or anywhere —
    each operation has a sensible sequential fallback outside a pool, so
    library code can be written once). *)

module Ops : sig
  (** [fork_join f g] runs [f] and [g] in parallel and returns both
      results. [g] is pushed on the calling worker's deque (stealable);
      [f] runs immediately (work-first). While waiting for a stolen
      [g], the worker helps: it executes tasks from its own deque or
      steals. The join state comes from a per-worker pool of reusable
      frames; when [g] was not stolen — the overwhelmingly common case
      — the worker pops it straight back and runs it inline without
      touching the frame's atomic at all. Exception safety: if [g]
      raises — inline, or on a thief — the exception is carried through
      the frame and re-raised here after the join; if [f] raises, [g]
      is still joined (its outcome discarded) and [f]'s exception
      wins. *)
  val fork_join : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b

  (** Like {!fork_join} for unit branches, skipping the result tuple:
      with top-level (constant-closure) branches the un-stolen path
      allocates only the owner pop's 2-word option. *)
  val fork_join_unit : (unit -> unit) -> (unit -> unit) -> unit

  (** [parallel_for ?grain ~start ~stop body] applies [body i] for
      [start <= i < stop] by lazy binary splitting: the calling worker
      iterates one grain-sized chunk at a time (with a {!tick} poll per
      chunk) and forks the remaining right half off as a stealable task
      only when observed demand asks for it. Chunk boundaries are
      cancellation points for both the pool-level flag and the
      enclosing fiber's ({!Future.cancel}). *)
  val parallel_for : ?grain:int -> start:int -> stop:int -> (int -> unit) -> unit

  (** Poll point: on signal-based variants, handle a pending
      work-exposure request (the body of the paper's signal handler).
      Constant time; a no-op on [Ws]/[Uslcws] and outside pools. Long
      sequential tasks should call this periodically. *)
  val tick : unit -> unit

  (** Worker id of the calling domain (0 when outside a pool). *)
  val my_id : unit -> int

  (** Has cancellation been requested — of the current job
      ({!Pool.cancel}), or of the enclosing fiber ({!Future.cancel})?
      [false] outside a pool. Long sequential task bodies can poll this
      to stop early. *)
  val cancelled : unit -> bool

  (** Raise {!Cancelled} if {!cancelled}[ ()] — an explicit
      cancellation point for long sequential sections, pairing with
      {!tick}. *)
  val check_cancel : unit -> unit

  (** Number of workers of the enclosing pool (1 outside). *)
  val num_workers : unit -> int

  (** [suspend register] parks the current fiber; [register] receives
      the one-shot [resume] closure (see the effects section above).
      At suspension-illegal depth the worker helps until resumed
      instead of parking; outside a pool the calling thread blocks on
      a condvar until [resume] fires. *)
  val suspend : ((unit -> unit) -> unit) -> unit

  (** [fork t] pushes [t] on the calling worker's deque — fire and
      forget, join it yourself (e.g. through a {!Future}). Runs [t]
      immediately outside a pool. *)
  val fork : task -> unit
end
