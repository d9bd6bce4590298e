(* xksbench — one workload of the repository benchmark per run.

     xksbench --workload W --seed N --seconds S --trace 0|1 --xks PATH

   Runs in its own work directory (relative paths only).  The corpus is
   generated from --seed by [xks gen dblp]; queries come from
   Workload_gen and other draws seeded by the workload seed.  With
   --trace 0 the workload runs untraced and the last stdout line holds
   the end-to-end metrics; with --trace 1 the benchmark times each
   call into a layer's public function itself and reports the
   per-layer metrics.  README.md gives the reasons for each workload
   and the metric-to-layer map. *)

module Engine = Xks_core.Engine
module Fragment = Xks_core.Fragment
module Exec = Xks_exec.Exec
module Pool = Xks_exec.Pool
module J = Xks_trace.Json
open Util
open Inputs

(* --- batch-enum --- *)

(* Queries go to Exec in the fixed batches of {!Inputs.batch_plan};
   every pass over the query set submits the same batches.  A batch's
   latency is its wall time, the time its caller waits; throughput is
   the queries completed over the summed batch wall times.  One
   untimed, checked pass comes first, so the timed batches do not pay
   for the heap growing to its working size.  The reference and the
   other set-up repeats run in forked children before the pool's
   domains exist. *)
let batch_enum ctx =
  let e, setup_ms = build_engine () in
  let qs = batch_queries ctx e in
  let more_setup = more_setup_times () in
  let answers =
    in_child (fun () ->
        Array.map
          (fun q ->
            let hits = Engine.search e q in
            ( fingerprint hits,
              List.fold_left
                (fun s (h : Engine.hit) -> s + Fragment.size h.fragment)
                0 hits ))
          qs)
  in
  let reference = Array.map fst answers in
  let plan = batch_plan e qs (Array.map snd answers) in
  let batches = Array.length plan in
  let pool = Pool.create ~size:ctx.nproc () in
  let checked = ref 0 and wrong = ref 0 and degraded = ref 0 in
  let run b =
    let ids = plan.(b) in
    let results, ms =
      timed (fun () ->
          Exec.search_batch_results ~pool e (List.map (fun i -> qs.(i)) ids))
    in
    List.iteri
      (fun j i ->
        let r = results.(j) in
        incr checked;
        if r.Engine.degraded <> None then incr degraded;
        if fingerprint r.Engine.hits <> reference.(i) then incr wrong)
      ids;
    ms
  in
  let times = ref [] and done_ = ref 0 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      for b = 0 to batches - 1 do
        ignore (run b)
      done;
      let stop_at = now_s () +. ctx.seconds in
      while now_s () < stop_at do
        times := run (!done_ / batch_size mod batches) :: !times;
        done_ := !done_ + batch_size
      done);
  {
    setup_s = median (setup_ms :: more_setup) /. 1000.0;
    throughput_qps = float !done_ /. (sum !times /. 1000.0);
    latencies = !times;
    attempted = !checked;
    wrong = !wrong;
    degraded = !degraded;
    rss_mb = peak_rss_mb ();
    nodes = Xks_xml.Tree.size (Engine.doc e);
    extra =
      [ ("distinct_queries", J.Int (Array.length qs));
        ("batch_size", J.Int batch_size);
        ("batches_run", J.Int (List.length !times));
        ("workers", J.Int ctx.nproc) ];
  }

(* --- topk-interactive --- *)

(* One client, closed loop: Engine.search ~rank:`Bm25 ~k:10, then
   Engine.render on every hit.  The answer must equal the k-prefix of
   full BM25 enumeration, computed in a forked child.  Throughput is
   the requests completed over their summed wall times. *)
let topk_interactive ctx =
  let e, setup_ms = build_engine () in
  let ((n_high, universe) as pairs) = topk_universe ctx e in
  let more_setup = more_setup_times () in
  let reference =
    in_child (fun () ->
        Array.map
          (fun q ->
            let hits =
              List.filteri (fun i _ -> i < top_k) (Engine.search ~rank:`Bm25 e q)
            in
            (fingerprint hits, render_bytes e hits))
          universe)
  in
  let lat = ref [] and n = ref 0 and wrong = ref 0 in
  let stop_at = now_s () +. ctx.seconds in
  while now_s () < stop_at do
    let i = topk_request pairs !n in
    let (hits, bytes), ms =
      timed (fun () ->
          let hits = Engine.search ~rank:`Bm25 ~k:top_k e universe.(i) in
          (hits, render_bytes e hits))
    in
    lat := ms :: !lat;
    incr n;
    if (fingerprint hits, bytes) <> reference.(i) then incr wrong
  done;
  {
    setup_s = median (setup_ms :: more_setup) /. 1000.0;
    throughput_qps = float !n /. (sum !lat /. 1000.0);
    latencies = !lat;
    attempted = !n;
    wrong = !wrong;
    degraded = 0;
    rss_mb = peak_rss_mb ();
    nodes = Xks_xml.Tree.size (Engine.doc e);
    extra =
      [ ("high_df_pairs", J.Int n_high);
        ("medium_df_pairs", J.Int (Array.length universe - n_high));
        ("high_df_every", J.Int topk_high_every);
        ("high_df_words",
         J.List
           (List.map (fun w -> J.String w)
              (List.sort_uniq String.compare
                 (List.concat (Array.to_list (Array.sub universe 0 n_high))))));
        ("k", J.Int top_k) ];
  }

(* --- main --- *)

let usage () =
  prerr_endline
    "usage: xksbench --workload batch-enum|topk-interactive --seed N \
     --seconds S --trace 0|1 --xks PATH";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let wid =
    match workload with
    | "batch-enum" -> 1
    | "topk-interactive" -> 2
    | _ -> usage ()
  in
  let seed = int "seed" in
  {
    workload;
    seed;
    wseed = (seed * 1000) + wid;
    seconds = float (int "seconds");
    trace = int "trace" = 1;
    xks = get "xks";
    nproc = Domain.recommended_domain_count ();
  }

let () =
  let ctx = parse_args () in
  (try Sys.remove log with Sys_error _ -> ());
  gen_corpus ctx;
  let correct =
    if ctx.trace then Layers.run ctx
    else
      report_e2e ctx
        (match ctx.workload with
        | "batch-enum" -> batch_enum ctx
        | _ -> topk_interactive ctx)
  in
  exit (if correct then 0 else 1)
