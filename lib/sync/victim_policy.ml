(* Victim selection for the steal path. See victim_policy.mli. *)

type policy = Uniform | Near_first

let policy_name = function Uniform -> "uniform" | Near_first -> "near_first"

let policy_of_string = function
  | "uniform" -> Some Uniform
  | "near_first" -> Some Near_first
  | _ -> None

let all_policies = [ Uniform; Near_first ]

(* Row [self] of [flat nw]. *)
let flat_row nw self = Array.init nw (fun j -> if j = self then 0 else 1)

let flat nw =
  if nw < 1 then invalid_arg "Victim_policy.flat";
  Array.init nw (flat_row nw)

let clustered ?(far = 4) ~cluster nw =
  if nw < 1 || cluster < 1 then invalid_arg "Victim_policy.clustered";
  Array.init nw (fun i ->
      Array.init nw (fun j ->
          if i = j then 0 else if i / cluster = j / cluster then 1 else far))

let check_topology topo ~nw =
  if Array.length topo <> nw then
    invalid_arg
      (Printf.sprintf "Victim_policy: topology is %dx? but the pool has %d workers"
         (Array.length topo) nw);
  Array.iteri
    (fun i row ->
      if Array.length row <> nw then
        invalid_arg (Printf.sprintf "Victim_policy: topology row %d has %d entries, want %d" i
             (Array.length row) nw);
      Array.iteri
        (fun j d ->
          if d < 0 then invalid_arg "Victim_policy: negative distance";
          if (i = j) <> (d = 0) then
            invalid_arg
              (Printf.sprintf "Victim_policy: distance(%d,%d) = %d (0 exactly on the diagonal)"
                 i j d))
        row)
    topo

type t = {
  policy : policy;
  rng : Xoshiro.t;
  self : int;
  nw : int;
  dist : int array;  (* distance from [self] to each worker id *)
  order : int array;  (* the other workers, sorted nearest-first (stable by id) *)
  near_count : int;  (* prefix of [order] at the minimal distance *)
  escalate_after : int;  (* consecutive failures before probing far victims too *)
  mutable fails : int;
  mutable last_victim : int;  (* -1 = none *)
  mutable affinity_pending : bool;  (* re-probe [last_victim] first *)
}

let create ?topology ?(escalate_after = 4) ~policy ~rng ~self ~nw () =
  if nw < 1 || self < 0 || self >= nw then invalid_arg "Victim_policy.create";
  if escalate_after < 1 then invalid_arg "Victim_policy.create: escalate_after must be >= 1";
  let dist =
    match topology with
    | Some topo ->
        check_topology topo ~nw;
        Array.copy topo.(self)
    | None -> flat_row nw self
  in
  let order = Array.init (max 0 (nw - 1)) (fun i -> if i < self then i else i + 1) in
  (* Insertion sort by (distance, id): [nw] is small and this runs once
     per worker at pool creation. *)
  for i = 1 to Array.length order - 1 do
    let v = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && dist.(order.(!j)) > dist.(v) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- v
  done;
  let near_count =
    if Array.length order = 0 then 0
    else begin
      let dmin = dist.(order.(0)) in
      let n = ref 0 in
      while !n < Array.length order && dist.(order.(!n)) = dmin do
        incr n
      done;
      !n
    end
  in
  {
    policy;
    rng;
    self;
    nw;
    dist;
    order;
    near_count;
    escalate_after;
    fails = 0;
    last_victim = -1;
    affinity_pending = false;
  }

let distance t ~victim = t.dist.(victim)

(* "Near" = at the minimal distance from [self] among the other workers,
   so on a flat topology every victim is near. *)
let is_near t ~victim =
  Array.length t.order > 0 && t.dist.(victim) = t.dist.(t.order.(0))

let last_victim t = t.last_victim

(* One probe choice. At most one RNG draw per call, and the affinity
   re-probe consumes none — the stream depends only on the sequence of
   [next]/[fail]/[success] calls, never on anything the fault layer does
   (the scheduler picks the victim *before* rolling a steal veto, so a
   vetoed probe burns the same draw a real probe would). *)
let next t =
  match t.policy with
  | Uniform -> Xoshiro.other_than t.rng ~bound:t.nw ~self:t.self
  | Near_first ->
      if t.affinity_pending && t.last_victim >= 0 then begin
        t.affinity_pending <- false;
        t.last_victim
      end
      else begin
        let window =
          if t.fails >= t.escalate_after then Array.length t.order else t.near_count
        in
        if window <= 0 then 0 (* nw = 1: never reached by the scheduler *)
        else t.order.(Xoshiro.int t.rng window)
      end

let fail t =
  t.fails <- t.fails + 1;
  t.affinity_pending <- false

let success t ~victim =
  t.fails <- 0;
  t.last_victim <- victim;
  t.affinity_pending <- true
