(* Measurement helpers shared by the workloads and the traced run:
   clock, percentiles, Zipf draws, answer fingerprints, process memory
   and child processes. *)

module Engine = Xks_core.Engine
module Fragment = Xks_core.Fragment

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [timed f] is [f ()] and its wall time in ms. *)
let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, (now_s () -. t0) *. 1000.0)

(* Nearest-rank percentile; [p] in (0, 1]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let i = int_of_float (Float.ceil (p *. float n)) - 1 in
      a.(max 0 (min (n - 1) i))

let median xs = percentile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* --- Zipf(s) ranks over [n] items --- *)

let zipf_cdf ~s n =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* The first rank whose cumulative weight reaches [u] in [0, 1). *)
let zipf_rank cdf u =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length cdf - 1)

(* Request [i] of a Zipf stream draws [u_i = frac (u0 + i/phi)]: a
   low-discrepancy sequence, so every prefix of the stream holds each
   rank in close to its Zipf share.  Independent uniform draws would let
   the share of an expensive top rank, and with it every timing, vary
   by several percent from seed to seed.  The seed sets [u0]. *)
let zipf_stream ~seed ~s n =
  let cdf = zipf_cdf ~s n in
  let u0 = Random.State.float (Random.State.make [| seed |]) 1.0 in
  let step = (Float.sqrt 5.0 -. 1.0) /. 2.0 in
  fun i ->
    let u = u0 +. (float i *. step) in
    zipf_rank cdf (u -. Float.of_int (int_of_float u))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Queries are compared as keyword sets, as the engine and cache do. *)
let query_key ws = String.concat " " (List.sort_uniq String.compare ws)

let dedup_queries qs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun q ->
      let k = query_key q in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    qs

(* --- answer fingerprints --- *)

(* A compact, exact summary of a ranked answer: hit count plus a digest
   of every hit's LCA id, fragment size, score bits and SLCA flag.  The
   reference keeps only this, so checking answers adds no resident
   result sets to the measured process. *)
type fingerprint = { count : int; digest : Digest.t }

let fingerprint (hits : Engine.hit list) =
  let b = Buffer.create 256 in
  List.iter
    (fun (h : Engine.hit) ->
      Printf.bprintf b "%d %d %h %b;" h.rtf.lca
        (Fragment.size h.fragment) h.score h.is_slca)
    hits;
  { count = List.length hits; digest = Digest.string (Buffer.contents b) }

(* --- processes and memory --- *)

(* Peak resident set (VmHWM) of [pid], or of this process, in MB. *)
let peak_rss_mb ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

let devnull () = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0

(* Start [prog args] with stdin/stdout on /dev/null and stderr appended
   to [log]. *)
let spawn ~log prog args =
  let null = devnull () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close null;
      Unix.close err)
    (fun () ->
      Unix.create_process prog (Array.of_list (prog :: args)) null null err)

let rec wait_pid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_pid pid

(* [in_child f] is [f ()] computed in a forked child and passed back
   marshalled over a pipe, so nothing [f] allocates counts toward this
   process's peak RSS.  Fork only works before any domain is spawned. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      let oc = Unix.out_channel_of_descr w in
      let code =
        match Marshal.to_channel oc (f ()) [] with
        | () ->
            close_out oc;
            0
        | exception e ->
            prerr_endline ("xksbench child: " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let v =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            match Marshal.from_channel ic with
            | v -> Some v
            | exception End_of_file -> None)
      in
      match (wait_pid pid, v) with
      | Unix.WEXITED 0, Some v -> v
      | (Unix.WEXITED _ | Unix.WSIGNALED _ | Unix.WSTOPPED _), _ ->
          failwith "xksbench: the forked child failed")

(* Run [prog args] to completion; a non-zero exit is fatal. *)
let run_command ~log prog args =
  match wait_pid (spawn ~log prog args) with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith
        (Printf.sprintf "%s %s: exit %d (see %s)" prog (String.concat " " args)
           n log)

let file_size path = (Unix.stat path).Unix.st_size

(* --- result line --- *)

type metric = { name : string; value : float; unit_ : string }

(* The last stdout line: every value with all its digits. *)
let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", " fields)
