(* Monotonic time in seconds and nanoseconds, and process CPU time. *)

let ns () = Int64.to_int (Monotonic_clock.now ())

let now () = float_of_int (ns ()) *. 1e-9

(* CPU seconds of the whole process: every domain's user and system
   time. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
