(* Order statistics for the benchmark's own numbers. Quartiles follow
   Python's [statistics.quantiles(values, n=4)] (the "exclusive"
   method), so quartiles a reader recomputes from the same samples match
   the ones printed here. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Bstats.median: no samples"
  | a ->
      let n = Array.length a in
      if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> invalid_arg "Bstats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [(q1, median, q3)]; needs at least two samples, like Python. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Bstats.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (cut 1, cut 2, cut 3)

(* Samples that must lie strictly beyond a reported tail percentile. *)
let min_beyond = 10

(* Nearest-rank percentile [q] (0 < q < 1), refused ([None]) unless at
   least [min_beyond] samples lie beyond its rank. *)
let percentile q xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  if n = 0 || rank < 1 || n - rank < min_beyond then None else Some a.(rank - 1)

let p99 xs = percentile 0.99 xs

(* Samples per window of [windowed_p99]. *)
let window = 1000

(* The median over consecutive windows of [window] samples of each
   window's p99, so that one bad stretch of a run moves one window;
   [None] below one window. [xs] must be in time order (either way). *)
let windowed_p99 xs =
  let a = Array.of_list xs in
  let k = Array.length a / window in
  if k = 0 then None
  else
    Some
      (median
         (List.init k (fun i ->
              match p99 (Array.to_list (Array.sub a (i * window) window)) with
              | Some v -> v
              | None -> assert false)))
