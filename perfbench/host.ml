(* The host fingerprint every result carries, and the hypervisor steal
   share over the run from the aggregate "cpu" line of /proc/stat. *)

(* [(steal, total)] jiffies, or [None] where /proc/stat (or its steal
   column) is absent. Guest time is already inside user time, so it is
   left out of the total. *)
let cpu_jiffies () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      (match line with
      | None -> None
      | Some line -> (
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | "cpu" :: rest when List.length rest >= 8 ->
              let v = Array.of_list (List.map int_of_string rest) in
              let total = ref 0 in
              for i = 0 to 7 do
                total := !total + v.(i)
              done;
              Some (v.(7), !total)
          | _ -> None))

(* Steal jiffies so far, or 0 where they cannot be read. *)
let steal_jiffies () = match cpu_jiffies () with Some (s, _) -> s | None -> 0

type t = { nproc : int; seed : int; start : (int * int) option }

let start ~nproc ~seed = { nproc; seed; start = cpu_jiffies () }

let steal_share t =
  match (t.start, cpu_jiffies ()) with
  | Some (s0, t0), Some (s1, t1) when t1 > t0 -> Some (float_of_int (s1 - s0) /. float_of_int (t1 - t0))
  | _ -> None

let to_json t =
  Printf.sprintf
    "{\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml_version\": %S, \"steal_share\": %s, \"seed\": %d}"
    t.nproc (Domain.recommended_domain_count ()) Sys.ocaml_version
    (match steal_share t with Some s -> Printf.sprintf "%.4f" s | None -> "null")
    t.seed
