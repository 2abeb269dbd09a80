(* Attempted and failed operations. Every operation the benchmark times
   is an attempt; a wrong result or an exception is a failure — counted,
   never dropped. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }

(* Record [n] attempts whose outcome is [ok]; [what] names them in the
   failure notes (the first few are kept for the run record). *)
let record ?(n = 1) t ~what ok =
  t.attempted <- t.attempted + n;
  if not ok then begin
    t.failed <- t.failed + n;
    if List.length t.notes < 8 then t.notes <- what :: t.notes
  end

(* [check t ~what f] runs the check [f], treating an exception as a
   failed check. *)
let check ?n t ~what f =
  let ok = try f () with _ -> false in
  record ?n t ~what ok;
  ok

let correct t = t.failed = 0 && t.attempted > 0
