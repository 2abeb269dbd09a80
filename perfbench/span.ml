(* In-memory spans recorded around the benchmark's calls into each
   layer. A span has a layer, a name, a start, an end and the span that
   caused it; self time is its duration minus the part its children
   cover. Spans may close on another domain than the one that opened
   them (a root fiber that awaited can resume elsewhere), so the store
   is guarded by a mutex; spans are coarse, one per call, so the lock is
   never hot. A disabled recorder ([off]) costs one branch per call. *)

type span = {
  id : int;
  parent : int; (* -1 for a root span *)
  layer : string;
  name : string;
  start : int; (* monotonic ns *)
  mutable stop : int;
}

type t = { on : bool; lock : Mutex.t; mutable spans : span list; mutable next : int }

let create () = { on = true; lock = Mutex.create (); spans = []; next = 0 }

let off = { on = false; lock = Mutex.create (); spans = []; next = 0 }

let enter t ?(parent = -1) ~layer name =
  if not t.on then -1
  else begin
    let start = Clock.ns () in
    Mutex.lock t.lock;
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; parent; layer; name; start; stop = start } :: t.spans;
    Mutex.unlock t.lock;
    id
  end

let exit t id =
  if t.on && id >= 0 then begin
    let stop = Clock.ns () in
    Mutex.lock t.lock;
    (match List.find_opt (fun s -> s.id = id) t.spans with
    | Some s -> s.stop <- stop
    | None -> ());
    Mutex.unlock t.lock
  end

(* [with_ t ~layer name f] spans the call [f parent], which receives the
   new span's id to parent the spans it opens. *)
let with_ t ?parent ~layer name f =
  let id = enter t ?parent ~layer name in
  Fun.protect ~finally:(fun () -> exit t id) (fun () -> f id)

let count t = List.length t.spans

(* Self seconds per layer, and the total duration of the root spans. *)
let self_times t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.replace children s.parent (s.stop - s.start + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
    t.spans;
  let per_layer = Hashtbl.create 8 in
  let roots = ref 0 in
  List.iter
    (fun s ->
      let dur = s.stop - s.start in
      if s.parent < 0 then roots := !roots + dur;
      let self = dur - Option.value ~default:0 (Hashtbl.find_opt children s.id) in
      let prev = Option.value ~default:0 (Hashtbl.find_opt per_layer s.layer) in
      Hashtbl.replace per_layer s.layer (prev + self))
    t.spans;
  let layers =
    Hashtbl.fold (fun l ns acc -> (l, float_of_int ns *. 1e-9) :: acc) per_layer []
    |> List.sort compare
  in
  (layers, float_of_int !roots *. 1e-9)
