(** Deterministic discrete-event simulator of the five schedulers (plus
    two related-work policies) over a machine cost model.

    Each of [p] virtual workers owns a deque and a local clock; the
    engine always advances the worker with the smallest clock, so runs
    are deterministic given the seed. Worker deques start small and
    double when a push finds them full, so a run is never limited by
    deque depth and never raises {!Lcws_deque.Deque_intf.Deque_full}.
    Scheduling behaviour — work-first forks, helping joins, split-deque
    exposure, targeted flags, signal latency — mirrors
    {!Lcws_sched.Scheduler} exactly; every
    synchronization operation advances the acting worker's clock by its
    cost in the {!Cost_model}. Speedups for Figures 4–7 are ratios of
    [makespan]s. *)

type policy =
  | Ws  (** Chase-Lev work stealing (baseline) *)
  | Uslcws  (** user-space LCWS, Section 3 *)
  | Signal  (** signal-based LCWS, Section 4 *)
  | Cons  (** Conservative Exposure, Section 4.1.1 *)
  | Half  (** Expose Half, Section 4.1.2 *)
  | Lace  (** split deque with unexposure, polled at task boundaries *)
  | Private_deques  (** Acar et al.: explicit transfer requests *)

val policy_name : policy -> string

val policy_of_string : string -> policy option

(** The paper's five (for the figures). *)
val paper_policies : policy list

type stats = {
  makespan : int;  (** cycles until the root computation completed *)
  total_work : int;  (** leaf cycles actually executed *)
  fences : int;
  cas : int;
  steal_attempts : int;
  steals : int;  (** successful *)
  exposed : int;  (** tasks transferred to public deque parts *)
  taken_back : int;  (** exposed tasks re-acquired by their owner *)
  signals_sent : int;
  signals_handled : int;
  tasks : int;  (** tasks executed (forked units) *)
  idle_cycles : int;  (** cycles spent in failed steal rounds *)
  tasks_migrated : int;  (** tasks that changed workers via a steal *)
  steals_batched : int;  (** steal episodes that moved more than one task *)
  near_steals : int;  (** steal episodes from a minimal-distance victim *)
  far_steals : int;  (** steal episodes from a farther victim *)
  cache_miss_cost : int;
      (** total modeled cycles thieves spent faulting migrated tasks'
          working sets across the topology
          ({!Cost_model.migration_cost}) *)
  policy_switches : int;
      (** adaptive runs: per-worker exposure-policy adoptions (one per
          worker per accepted governor flip); 0 on static runs *)
}

(** [exposed - steals], clamped at 0 — the "exposed but not stolen"
    quantity of Figures 3d and 8d. *)
val exposed_not_stolen : stats -> int

(** [run ~machine ~policy ~p ~seed comp] simulates [comp] on [p] workers.
    Worker 0 starts with the root; others steal. Deterministic.

    @param trace event sink (default {!Lcws_trace.Trace.null}); events are
      stamped with the acting worker's {e virtual} clock, so exported
      timelines and latency histograms are in model cycles, not
      nanoseconds.
    @param steal_policy victim-selection policy
      ({!Lcws_sync.Victim_policy.policy}). Defaults to [Uniform], which
      reproduces the engine's historical probe stream exactly.
    @param topology distance matrix for {!Lcws_sync.Victim_policy} and
      {!Cost_model.migration_cost} scaling (default flat — every
      migration at distance 1).
    @param steal_batch upper bound on tasks per steal episode (default
      1, classical steal-one). Thieves take
      [min steal_batch (max 1 (public / 2))] — the steal-half rule —
      charging one CAS per claimed task and pushing the extras into
      their own deque.
    @param adaptive elastic exposure policy (default false): a
      {!Lcws_sched.Policy_governor} samples the run's cumulative steal
      pressure every [adaptive_config.epoch] engine steps and flips the
      whole simulated pool between [Uslcws] and the handshake
      discipline ([policy] itself, or [Signal] for a [Uslcws] run).
      Requires a synchronization-light paper [policy].
    @param adaptive_config governor thresholds and sampling epoch
      (default {!Lcws_sched.Policy_governor.default_config}).
    @raise Invalid_argument if [trace] was created for fewer than [p]
      workers, [steal_batch < 1], or [adaptive] is requested with a
      policy that is not one of [Uslcws]/[Signal]/[Cons]/[Half]. *)
val run :
  machine:Cost_model.t ->
  policy:policy ->
  p:int ->
  ?seed:int64 ->
  ?quantum:int ->
  ?trace:Lcws_trace.Trace.t ->
  ?steal_policy:Lcws_sync.Victim_policy.policy ->
  ?topology:int array array ->
  ?steal_batch:int ->
  ?adaptive:bool ->
  ?adaptive_config:Lcws_sched.Policy_governor.config ->
  Comp.t ->
  stats
