module Xoshiro = Lcws_sync.Xoshiro
module Victim_policy = Lcws_sync.Victim_policy
module Pdq = Lcws_deque.Private_deque
module Trace = Lcws_trace.Trace
module Policy_governor = Lcws_sched.Policy_governor

type policy = Ws | Uslcws | Signal | Cons | Half | Lace | Private_deques

let policy_name = function
  | Ws -> "ws"
  | Uslcws -> "uslcws"
  | Signal -> "signal"
  | Cons -> "cons"
  | Half -> "half"
  | Lace -> "lace"
  | Private_deques -> "private"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "ws" -> Some Ws
  | "uslcws" | "user" -> Some Uslcws
  | "signal" -> Some Signal
  | "cons" | "conservative" -> Some Cons
  | "half" -> Some Half
  | "lace" -> Some Lace
  | "private" | "private_deques" -> Some Private_deques
  | _ -> None

let paper_policies = [ Ws; Uslcws; Signal; Cons; Half ]

type stats = {
  makespan : int;
  total_work : int;
  fences : int;
  cas : int;
  steal_attempts : int;
  steals : int;
  exposed : int;
  taken_back : int;
  signals_sent : int;
  signals_handled : int;
  tasks : int;
  idle_cycles : int;
  tasks_migrated : int;
  steals_batched : int;
  near_steals : int;
  far_steals : int;
  cache_miss_cost : int;
  policy_switches : int;
}

let exposed_not_stolen s = max 0 (s.exposed - s.steals)

type cell = { mutable cdone : bool }

type task = { tcomp : Comp.t; tcell : cell }

type frame = Fdo of Comp.t | Fseq of Comp.t list | Fjoin of cell | Fend of cell

type worker = {
  id : int;
  mutable time : int;
  mutable dq : task Pdq.t;  (** replaced by a twice-as-large copy when full *)
  mutable public_count : int;  (** topmost tasks visible to thieves *)
  mutable stack : frame list;
  mutable targeted : bool;
  mutable pending_signal_at : int;  (** delivery time, -1 if none *)
  mutable steal_request : int;  (** Private_deques: requesting worker, -1 none *)
  mutable granted : grant;  (** Private_deques: victim's response to this thief *)
  mutable requested : bool;  (** Private_deques: has an outstanding request *)
  mutable hunting : bool;
      (** in the steal phase of [get_task]: the own deque came up empty
          and is not re-probed until new work is obtained (mirrors the
          real engine's work-search loop — idle WS workers must not be
          charged a pop fence per steal round) *)
  mutable search_start : int;  (** virtual time hunting began, -1 if not *)
  mutable req_victim : int;  (** Private_deques: victim of the outstanding request *)
  rng : Xoshiro.t;
  vsel : Victim_policy.t;
}

(* Acar et al.'s request/response cells: a victim always answers, either
   with a task or an explicit denial, and a thief keeps at most one
   request outstanding — otherwise a second grant could overwrite (and
   lose) the first. *)
and grant = No_grant | Denied | Granted of task

type sim = {
  machine : Cost_model.t;
  mutable policy : policy; (* mutable for adaptive runs; see [switch_policy] *)
  p : int;
  workers : worker array;
  quantum : int;
  steal_limit : int;  (** max tasks per steal episode (steal-half cap) *)
  (* global counters *)
  mutable fences : int;
  mutable cas : int;
  mutable steal_attempts : int;
  mutable steals : int;
  mutable exposed : int;
  mutable taken_back : int;
  mutable signals_sent : int;
  mutable signals_handled : int;
  mutable tasks : int;
  mutable idle_cycles : int;
  mutable tasks_migrated : int;
  mutable steals_batched : int;
  mutable near_steals : int;
  mutable far_steals : int;
  mutable cache_miss_cost : int;
  mutable policy_switches : int;
  mutable work_done : int;
  trace : Trace.t;  (** event sink; timestamps are virtual worker clocks *)
}

let dummy_task = { tcomp = Comp.Work 0; tcell = { cdone = true } }

let private_size w = Pdq.size w.dq - w.public_count

(* --- exposure ------------------------------------------------------- *)

(* Number of tasks the variant would move to the public part. *)
let exposure_amount policy r =
  match policy with
  | Uslcws | Signal -> if r >= 1 then 1 else 0
  | Cons -> if r >= 2 then 1 else 0
  | Half -> if r >= 3 then Lcws_sync.Fastmath.round_half r else if r >= 1 then 1 else 0
  | Lace -> if r >= 3 then Lcws_sync.Fastmath.round_half r else if r >= 1 then 1 else 0
  | Ws | Private_deques -> 0

let expose sim w =
  let k = exposure_amount sim.policy (private_size w) in
  if k > 0 then begin
    w.public_count <- w.public_count + k;
    sim.exposed <- sim.exposed + k;
    (* A volatile/plain store in the C++ implementation. *)
    w.time <- w.time + sim.machine.plain_op_cost;
    if Trace.enabled sim.trace then
      Trace.record_expose sim.trace ~worker:w.id ~time:w.time ~tasks:k
  end;
  k

(* Task-boundary targeted check (USLCWS Listing 1 lines 8-12; Lace polls
   its splitreq flag whenever the owner touches its deque). *)
let boundary_exposure_check sim w =
  match sim.policy with
  | Uslcws | Lace ->
      if w.targeted then begin
        w.targeted <- false;
        if Trace.enabled sim.trace then
          Trace.record_signal_handled sim.trace ~worker:w.id ~time:w.time;
        ignore (expose sim w);
        sim.signals_handled <- sim.signals_handled + 1
      end
  | Private_deques ->
      if w.steal_request >= 0 then begin
        let thief = sim.workers.(w.steal_request) in
        w.steal_request <- -1;
        (match Pdq.pop_top w.dq with
        | Some t ->
            thief.granted <- Granted t;
            (* Transfer through a shared cell: a fence on each side. *)
            w.time <- w.time + sim.machine.fence_cost;
            sim.fences <- sim.fences + 1
        | None -> thief.granted <- Denied);
        if Trace.enabled sim.trace then
          Trace.record_signal_handled sim.trace ~worker:w.id ~time:w.time;
        sim.signals_handled <- sim.signals_handled + 1
      end
  | Ws | Signal | Cons | Half -> ()

(* Signal delivery: handled at any step boundary once the latency has
   elapsed — the simulator's faithful version of in-handler execution. *)
let deliver_pending_signal sim w =
  match sim.policy with
  | Signal | Cons | Half ->
      if w.pending_signal_at >= 0 && w.pending_signal_at <= w.time then begin
        w.pending_signal_at <- -1;
        w.time <- w.time + sim.machine.signal_handle_cost;
        if Trace.enabled sim.trace then
          Trace.record_signal_handled sim.trace ~worker:w.id ~time:w.time;
        ignore (expose sim w);
        sim.signals_handled <- sim.signals_handled + 1
      end
  | Ws | Uslcws | Lace | Private_deques -> ()

(* Adaptive runs: flip the whole simulated pool to [target]. The
   sequential engine collapses the real scheduler's per-worker
   publish/ack handshake ([Sched_protocol.Policy_switch]) to one
   atomic step — there is no concurrency to fence against — but the
   drain is mirrored faithfully: each worker serves a request already
   deposited on the channel of the {e old} discipline (a pending
   signal, or a raised targeted flag) before the flip, so no modeled
   exposure request is lost across a switch, exactly as in the real
   engine. *)
let switch_policy sim target =
  Array.iter
    (fun w ->
      (match sim.policy with
      | Signal | Cons | Half ->
          if w.pending_signal_at >= 0 then begin
            w.pending_signal_at <- -1;
            w.time <- w.time + sim.machine.signal_handle_cost;
            if Trace.enabled sim.trace then
              Trace.record_signal_handled sim.trace ~worker:w.id ~time:w.time;
            ignore (expose sim w);
            sim.signals_handled <- sim.signals_handled + 1
          end
      | Uslcws ->
          if w.targeted then begin
            w.targeted <- false;
            if Trace.enabled sim.trace then
              Trace.record_signal_handled sim.trace ~worker:w.id ~time:w.time;
            ignore (expose sim w);
            sim.signals_handled <- sim.signals_handled + 1
          end
      | Ws | Lace | Private_deques -> ());
      sim.policy_switches <- sim.policy_switches + 1;
      if Trace.enabled sim.trace then
        Trace.record_policy_switch sim.trace ~worker:w.id ~time:w.time
          ~mode:(if target = Uslcws then 0 else 1))
    sim.workers;
  sim.policy <- target

(* --- deque operations with cost accounting --------------------------- *)

(* Worker deques start small and double when a push finds them full;
   they rarely hold more than a few dozen tasks. Four slots is fewer
   than the 7 extras of one [steal_batch:8] episode (the runtime pool's
   default batch), so batched steals take the growth path too, not only
   deep fork chains. *)
let initial_deque_capacity = 4

let new_deque capacity = Pdq.create ~capacity ~dummy:dummy_task ()

(* Move the tasks over top to bottom, so their order — and with it the
   simulated schedule — is unchanged. *)
let grow_deque w =
  let dq = new_deque (2 * Pdq.capacity w.dq) in
  let rec move () =
    match Pdq.pop_top w.dq with
    | Some t ->
        Pdq.push_bottom dq t;
        move ()
    | None -> ()
  in
  move ();
  w.dq <- dq

let push_task sim w task =
  if Pdq.size w.dq >= Pdq.capacity w.dq then grow_deque w;
  Pdq.push_bottom w.dq task;
  (* The own deque is non-empty again: the next work search must probe it. *)
  w.hunting <- false;
  w.time <- w.time + sim.machine.plain_op_cost;
  (match sim.policy with
  | Ws ->
      (* Chase-Lev push: release store of [bottom]; cheap, no fence. *)
      w.public_count <- Pdq.size w.dq
  | Signal | Cons | Half ->
      (* New private work: allow fresh notifications (Section 4). *)
      if w.targeted then w.targeted <- false
  | Uslcws | Lace | Private_deques -> ());
  ()

let pop_own sim w =
  match sim.policy with
  | Ws ->
      let was = Pdq.size w.dq in
      if was = 0 then begin
        (* Chase-Lev with the emptiness pre-check: no fence on an empty
           owner pop (matches the real engine). *)
        w.time <- w.time + sim.machine.plain_op_cost;
        None
      end
      else begin
        let r = Pdq.pop_bottom w.dq in
        w.public_count <- Pdq.size w.dq;
        (* Chase-Lev take: one seq-cst fence; CAS on the last item. *)
        w.time <- w.time + sim.machine.fence_cost;
        sim.fences <- sim.fences + 1;
        if was = 1 then begin
          w.time <- w.time + sim.machine.cas_cost;
          sim.cas <- sim.cas + 1
        end;
        r
      end
  | Private_deques ->
      boundary_exposure_check sim w;
      let r = Pdq.pop_bottom w.dq in
      w.time <- w.time + sim.machine.plain_op_cost;
      r
  | Uslcws | Signal | Cons | Half | Lace ->
      if private_size w > 0 then begin
        let r = Pdq.pop_bottom w.dq in
        w.time <- w.time + sim.machine.plain_op_cost;
        boundary_exposure_check sim w;
        r
      end
      else if w.public_count > 0 then begin
        match sim.policy with
        | Lace ->
            (* Unexpose: pull the split point back and take privately. *)
            w.public_count <- w.public_count - 1;
            let r = Pdq.pop_bottom w.dq in
            w.time <- w.time + (2 * sim.machine.fence_cost) + sim.machine.cas_cost;
            sim.fences <- sim.fences + 2;
            sim.cas <- sim.cas + 1;
            if Trace.enabled sim.trace then
              Trace.record_pop_public sim.trace ~worker:w.id ~time:w.time;
            boundary_exposure_check sim w;
            r
        | Uslcws | Signal | Cons | Half ->
            (* pop_public_bottom: two fences; CAS when racing the last
               public task (Listing 2). *)
            let last = w.public_count = 1 in
            w.public_count <- w.public_count - 1;
            let r = Pdq.pop_bottom w.dq in
            w.time <- w.time + (2 * sim.machine.fence_cost);
            sim.fences <- sim.fences + 2;
            if last then begin
              w.time <- w.time + sim.machine.cas_cost;
              sim.cas <- sim.cas + 1
            end;
            sim.taken_back <- sim.taken_back + 1;
            if w.targeted then w.targeted <- false;
            if Trace.enabled sim.trace then
              Trace.record_pop_public sim.trace ~worker:w.id ~time:w.time;
            r
        | Ws | Private_deques -> assert false
      end
      else begin
        if w.targeted then w.targeted <- false;
        None
      end

(* A steal episode moved [tasks] tasks from [v] to [w]: charge the
   distance-scaled cache misses of dragging their working sets over,
   and keep the locality metrics. *)
let account_migration sim w ~victim ~tasks =
  let distance = Victim_policy.distance w.vsel ~victim in
  let miss = Cost_model.migration_cost sim.machine ~tasks ~distance in
  w.time <- w.time + miss;
  sim.cache_miss_cost <- sim.cache_miss_cost + miss;
  sim.tasks_migrated <- sim.tasks_migrated + tasks;
  if Victim_policy.is_near w.vsel ~victim then sim.near_steals <- sim.near_steals + 1
  else sim.far_steals <- sim.far_steals + 1;
  if tasks > 1 then begin
    sim.steals_batched <- sim.steals_batched + 1;
    if Trace.enabled sim.trace then
      Trace.record_steal_batch sim.trace ~thief:w.id ~time:w.time ~tasks
  end;
  Victim_policy.success w.vsel ~victim

(* Claim up to [extra] additional tasks from [v]'s public prefix after a
   first successful claim — each claim is one more (always-successful in
   the simulator) CAS, mirroring the incremental batch protocol of the
   real deques — and push them into the thief's own deque. Returns the
   number actually taken. *)
let claim_extras sim w v ~extra =
  let n = ref 0 in
  let continue = ref true in
  while !continue && !n < extra && Pdq.size v.dq > 0 do
    match Pdq.pop_top v.dq with
    | None -> continue := false
    | Some t ->
        w.time <- w.time + sim.machine.cas_cost;
        sim.cas <- sim.cas + 1;
        push_task sim w t;
        incr n
  done;
  !n

(* One steal attempt; returns the stolen task if any. *)
let try_steal sim w =
  (match sim.policy, w.granted with
  | Private_deques, Granted t ->
      w.granted <- No_grant;
      w.requested <- false;
      sim.steals <- sim.steals + 1;
      if w.req_victim >= 0 then account_migration sim w ~victim:w.req_victim ~tasks:1;
      w.req_victim <- -1;
      Some t
  | Private_deques, Denied ->
      w.granted <- No_grant;
      w.requested <- false;
      w.req_victim <- -1;
      Victim_policy.fail w.vsel;
      None
  | Private_deques, No_grant when w.requested ->
      (* Wait for the response; the idle pause is charged by [acquire]. *)
      None
  | _, _ when sim.p < 2 -> None
  | _, _ ->
  let v = sim.workers.(Victim_policy.next w.vsel) in
  w.time <- w.time + sim.machine.steal_round_cost;
  sim.steal_attempts <- sim.steal_attempts + 1;
  if Trace.enabled sim.trace then
    Trace.record_steal_attempt sim.trace ~thief:w.id ~victim:v.id ~time:w.time;
  match sim.policy with
  | Ws ->
      if Pdq.size v.dq > 0 then begin
        let avail = Pdq.size v.dq in
        let want = min sim.steal_limit (max 1 (avail / 2)) in
        w.time <- w.time + sim.machine.fence_cost + sim.machine.cas_cost;
        sim.fences <- sim.fences + 1;
        sim.cas <- sim.cas + 1;
        let r = Pdq.pop_top v.dq in
        (match r with
        | Some _ ->
            sim.steals <- sim.steals + 1;
            let extra = claim_extras sim w v ~extra:(want - 1) in
            v.public_count <- Pdq.size v.dq;
            account_migration sim w ~victim:v.id ~tasks:(1 + extra);
            if Trace.enabled sim.trace then
              Trace.record_steal_ok sim.trace ~thief:w.id ~victim:v.id ~time:w.time
                ~search_start:w.search_start
        | None ->
            v.public_count <- Pdq.size v.dq;
            Victim_policy.fail w.vsel);
        r
      end
      else begin
        w.time <- w.time + sim.machine.fence_cost;
        sim.fences <- sim.fences + 1;
        Victim_policy.fail w.vsel;
        if Trace.enabled sim.trace then
          Trace.record_steal_empty sim.trace ~thief:w.id ~victim:v.id ~time:w.time;
        None
      end
  | Private_deques ->
      if Pdq.size v.dq > 0 && v.steal_request < 0 then begin
        v.steal_request <- w.id;
        w.requested <- true;
        w.req_victim <- v.id;
        w.time <- w.time + sim.machine.plain_op_cost
      end
      else Victim_policy.fail w.vsel;
      None
  | Uslcws | Signal | Cons | Half | Lace ->
      if v.public_count > 0 then begin
        let avail = v.public_count in
        let want = min sim.steal_limit (max 1 (avail / 2)) in
        w.time <- w.time + sim.machine.cas_cost;
        sim.cas <- sim.cas + 1;
        v.public_count <- v.public_count - 1;
        let r = Pdq.pop_top v.dq in
        sim.steals <- sim.steals + 1;
        let extra = min (want - 1) v.public_count in
        let taken = claim_extras sim w v ~extra in
        v.public_count <- v.public_count - taken;
        account_migration sim w ~victim:v.id ~tasks:(1 + taken);
        if v.targeted then v.targeted <- false;
        if Trace.enabled sim.trace then
          Trace.record_steal_ok sim.trace ~thief:w.id ~victim:v.id ~time:w.time
            ~search_start:w.search_start;
        r
      end
      else if Pdq.size v.dq > 0 then begin
        (* PRIVATE_WORK: notify the victim. *)
        let notified =
          match sim.policy with
          | Uslcws | Lace ->
              v.targeted <- true;
              w.time <- w.time + sim.machine.plain_op_cost;
              sim.signals_sent <- sim.signals_sent + 1;
              true
          | Signal | Half ->
              if not v.targeted then begin
                v.targeted <- true;
                v.pending_signal_at <- w.time + sim.machine.signal_deliver_latency;
                w.time <- w.time + sim.machine.signal_send_cost;
                sim.signals_sent <- sim.signals_sent + 1;
                true
              end
              else false
          | Cons ->
              if (not v.targeted) && private_size v >= 2 then begin
                v.targeted <- true;
                v.pending_signal_at <- w.time + sim.machine.signal_deliver_latency;
                w.time <- w.time + sim.machine.signal_send_cost;
                sim.signals_sent <- sim.signals_sent + 1;
                true
              end
              else false
          | Ws | Private_deques -> false
        in
        if notified && Trace.enabled sim.trace then
          Trace.record_notify sim.trace ~thief:w.id ~victim:v.id ~time:w.time;
        None
      end
      else begin
        if Trace.enabled sim.trace then
          Trace.record_steal_empty sim.trace ~thief:w.id ~victim:v.id ~time:w.time;
        None
      end)

let start_task sim w (t : task) =
  sim.tasks <- sim.tasks + 1;
  if w.hunting && Trace.enabled sim.trace then begin
    Trace.record_idle_exit sim.trace ~worker:w.id ~time:w.time;
    w.search_start <- -1
  end;
  w.hunting <- false;
  w.time <- w.time + sim.machine.task_overhead;
  if Trace.enabled sim.trace then
    Trace.record_task_start sim.trace ~worker:w.id ~time:w.time;
  w.stack <- Fdo t.tcomp :: Fend t.tcell :: w.stack

(* Attempt to obtain work when idle or blocked on a join: own deque once,
   then repeated steal attempts (Listing 1's [get_task] shape — the own
   deque is not re-probed on every failed steal round). *)
let acquire sim w =
  let own = if w.hunting then None else pop_own sim w in
  match own with
  | Some t -> start_task sim w t
  | None -> (
      if (not w.hunting) && Trace.enabled sim.trace then begin
        w.search_start <- w.time;
        Trace.record_idle_enter sim.trace ~worker:w.id ~time:w.time
      end;
      w.hunting <- true;
      match try_steal sim w with
      | Some t -> start_task sim w t
      | None ->
          (* Nothing found this round; the steal loop burns time. *)
          let pause = max sim.machine.plain_op_cost (sim.machine.steal_round_cost / 4) in
          w.time <- w.time + pause;
          sim.idle_cycles <- sim.idle_cycles + pause)

let pfor_leaf_work (p : Comp.pfor) =
  let acc = ref 0 in
  for i = p.lo to p.hi - 1 do
    acc := !acc + p.leaf_cost i
  done;
  !acc

let step sim w =
  deliver_pending_signal sim w;
  match w.stack with
  | [] -> acquire sim w
  | Fdo (Comp.Work c) :: rest ->
      let q = min c sim.quantum in
      w.time <- w.time + q;
      sim.work_done <- sim.work_done + q;
      if c > q then w.stack <- Fdo (Comp.Work (c - q)) :: rest else w.stack <- rest
  | Fdo (Comp.Seq l) :: rest -> w.stack <- Fseq l :: rest
  | Fdo (Comp.Fork (a, b)) :: rest ->
      let cell = { cdone = false } in
      push_task sim w { tcomp = b; tcell = cell };
      w.stack <- Fdo a :: Fjoin cell :: rest
  | Fdo (Comp.Pfor p) :: rest ->
      if p.hi - p.lo <= p.grain then w.stack <- Fdo (Comp.Work (pfor_leaf_work p)) :: rest
      else begin
        let mid = p.lo + ((p.hi - p.lo) / 2) in
        let cell = { cdone = false } in
        push_task sim w { tcomp = Comp.Pfor { p with lo = mid }; tcell = cell };
        w.stack <- Fdo (Comp.Pfor { p with hi = mid }) :: Fjoin cell :: rest
      end
  | Fseq [] :: rest -> w.stack <- rest
  | Fseq (c :: cs) :: rest -> w.stack <- Fdo c :: Fseq cs :: rest
  | Fend cell :: rest ->
      cell.cdone <- true;
      w.time <- w.time + sim.machine.task_overhead;
      if Trace.enabled sim.trace then
        Trace.record_task_end sim.trace ~worker:w.id ~time:w.time;
      w.stack <- rest;
      boundary_exposure_check sim w
  | Fjoin cell :: rest -> if cell.cdone then w.stack <- rest else acquire sim w

let run ~machine ~policy ~p ?(seed = 7L) ?(quantum = 200) ?(trace = Trace.null)
    ?(steal_policy = Victim_policy.Uniform) ?topology ?(steal_batch = 1)
    ?(adaptive = false) ?adaptive_config comp =
  if p < 1 then invalid_arg "Engine.run";
  if steal_batch < 1 then invalid_arg "Engine.run: steal_batch must be >= 1";
  if Trace.enabled trace && Trace.num_workers trace < p then
    invalid_arg "Engine.run: trace was created for fewer workers";
  let governor =
    if not adaptive then None
    else begin
      (match policy with
      | Uslcws | Signal | Cons | Half -> ()
      | Ws | Lace | Private_deques ->
          invalid_arg
            "Engine.run: adaptive needs a synchronization-light paper policy (uslcws, \
             signal, cons or half)");
      let config =
        match adaptive_config with Some c -> c | None -> Policy_governor.default_config
      in
      let initial =
        if policy = Uslcws then Policy_governor.Unsync else Policy_governor.Handshake
      in
      Some (Policy_governor.create ~config ~initial (), config.Policy_governor.epoch)
    end
  in
  (* The discipline an adaptive run flips to when the governor says
     handshake: the requested signal variant, or [Signal] for [Uslcws]. *)
  let handshake_policy = match policy with Uslcws -> Signal | pol -> pol in
  let root_rng = Xoshiro.create seed in
  let workers =
    Array.init p (fun id ->
        let rng = Xoshiro.split root_rng id in
        {
          id;
          time = 0;
          dq = new_deque initial_deque_capacity;
          public_count = 0;
          stack = [];
          targeted = false;
          pending_signal_at = -1;
          steal_request = -1;
          granted = No_grant;
          requested = false;
          hunting = false;
          search_start = -1;
          req_victim = -1;
          rng;
          vsel = Victim_policy.create ?topology ~policy:steal_policy ~rng ~self:id ~nw:p ();
        })
  in
  let sim =
    {
      machine;
      policy;
      p;
      workers;
      quantum = max 1 quantum;
      steal_limit = steal_batch;
      fences = 0;
      cas = 0;
      steal_attempts = 0;
      steals = 0;
      exposed = 0;
      taken_back = 0;
      signals_sent = 0;
      signals_handled = 0;
      tasks = 0;
      idle_cycles = 0;
      tasks_migrated = 0;
      steals_batched = 0;
      near_steals = 0;
      far_steals = 0;
      cache_miss_cost = 0;
      policy_switches = 0;
      work_done = 0;
      trace;
    }
  in
  let root = { cdone = false } in
  workers.(0).stack <- [ Fdo comp; Fend root ];
  (* The root is placed directly, not via [start_task]: stamp its start
     so task start/end events balance. *)
  if Trace.enabled trace then Trace.record_task_start trace ~worker:0 ~time:0;
  let makespan = ref 0 in
  let guard = ref 0 in
  let max_steps = 2_000_000_000 in
  while not root.cdone do
    incr guard;
    if !guard > max_steps then failwith "Engine.run: step budget exceeded (livelock?)";
    (* Adaptive governor tick: sample the cumulative counters every
       [epoch] engine steps (deterministic — the step counter stands in
       for the real engine's per-worker poll counting), with the
       currently hunting workers as the starvation gauge. *)
    (match governor with
    | Some (g, epoch) when !guard mod epoch = 0 ->
        let hunting =
          Array.fold_left (fun acc w -> if w.hunting then acc + 1 else acc) 0 workers
        in
        let target =
          Policy_governor.sample g ~steal_attempts:sim.steal_attempts
            ~tasks_run:sim.tasks ~parked:hunting ~num_workers:p
        in
        let target_policy =
          match target with
          | Policy_governor.Unsync -> Uslcws
          | Policy_governor.Handshake -> handshake_policy
        in
        if target_policy <> sim.policy then switch_policy sim target_policy
    | _ -> ());
    (* Advance the worker with the smallest local clock (deterministic;
       ties broken by id). *)
    let w = ref workers.(0) in
    for i = 1 to p - 1 do
      if workers.(i).time < !w.time then w := workers.(i)
    done;
    step sim !w;
    if root.cdone then makespan := !w.time
  done;
  {
    makespan = !makespan;
    total_work = sim.work_done;
    fences = sim.fences;
    cas = sim.cas;
    steal_attempts = sim.steal_attempts;
    steals = sim.steals;
    exposed = sim.exposed;
    taken_back = sim.taken_back;
    signals_sent = sim.signals_sent;
    signals_handled = sim.signals_handled;
    tasks = sim.tasks;
    idle_cycles = sim.idle_cycles;
    tasks_migrated = sim.tasks_migrated;
    steals_batched = sim.steals_batched;
    near_steals = sim.near_steals;
    far_steals = sim.far_steals;
    cache_miss_cost = sim.cache_miss_cost;
    policy_switches = sim.policy_switches;
  }
