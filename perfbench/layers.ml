(* The traced run: per-layer metrics, timed from this file around calls
   into each layer's public functions (no tracing inside the library).

   Query layers are measured on the run's own workload queries, in the
   workload's mode ({!Inputs.mode}); the full-enumeration stages and the
   top-k scan are each timed on those queries in both modes.  Cache,
   HTTP, serve and load-generator metrics always come from the serve
   stream of the same seed ({!Inputs.request_stream}): Zipf(1.1)
   repeats, the traffic those layers carry. *)

module Engine = Xks_core.Engine
module Query = Xks_core.Query
module Fragment = Xks_core.Fragment
module Rtf = Xks_core.Rtf
module Exec = Xks_exec.Exec
module Pool = Xks_exec.Pool
module Cache = Xks_exec.Cache
module Inverted = Xks_index.Inverted
module Persist = Xks_index.Persist
module Http = Xks_serve.Http
module J = Xks_trace.Json
open Util
open Inputs

(* Per-query time accumulators, in ms, keyed by layer name. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) name ms =
  Hashtbl.replace acc name (ms +. Option.value ~default:0.0 (Hashtbl.find_opt acc name))

let get (acc : acc) name = Option.value ~default:0.0 (Hashtbl.find_opt acc name)

let span acc name f =
  let r, ms = timed f in
  add acc name ms;
  r

type counts = {
  mutable queries : int;
  mutable postings : int;
  mutable elcas : int;
  mutable kept_nodes : int;
  mutable raw_nodes : int;
  mutable early_exits : int;
  mutable scanned : int;
  mutable driver : int;
  mutable render_bytes : int;
  mutable wrong : int;
}

let slca_table (q : Query.t) =
  if Query.has_results q then
    Array.of_list (Xks_lca.Slca.indexed_lookup_eager q.doc q.postings)
  else [||]

let hit slcas (s : Xks_core.Ranking.scored) =
  {
    Engine.fragment = s.fragment;
    rtf = s.rtf;
    score = s.score;
    is_slca = Xks_util.Bsearch.mem slcas s.rtf.lca;
    degraded = None;
  }

(* Engine.search (ValidRTF, heuristic rank), one public call per stage:
   getKeywordNodes, getLCA, getRTF, pruneRTF, rank, SLCA tagging. *)
let full_stages acc c e ws =
  let q = span acc "full.make" (fun () -> Query.make ~order:`Rarest (Engine.index e) ws) in
  let lcas =
    span acc "lca" (fun () ->
        if Query.has_results q then Xks_lca.Indexed_stack.elca q.doc q.postings
        else [])
  in
  let rtfs = span acc "rtf" (fun () -> Rtf.get_rtfs q lcas) in
  let fragments =
    span acc "full.prune" (fun () ->
        List.map
          (fun r -> Xks_core.Prune.valid_contributor (Xks_core.Node_info.construct q r))
          rtfs)
  in
  let scored =
    span acc "rank" (fun () ->
        Xks_core.Ranking.rank { Xks_core.Pipeline.query = q; lcas; rtfs; fragments })
  in
  let slcas =
    span acc "full.slca" (fun () -> if scored = [] then [||] else slca_table q)
  in
  c.elcas <- c.elcas + List.length lcas;
  (q, rtfs, fragments, List.map (hit slcas) scored)

(* Engine.search ~rank:`Bm25 ~k, one public call per stage: the
   streaming scan, SLCA tagging, then pruning only the k winners. *)
let topk_stages acc c e ws =
  let q = span acc "topk.make" (fun () -> Query.make ~order:`Rarest (Engine.index e) ws) in
  let outcome =
    span acc "topk" (fun () ->
        let w = Xks_core.Rank.weights q in
        Xks_lca.Topk.run ~k:top_k
          ~score:(fun ~lca:_ ~tf -> Xks_core.Rank.score_tf w tf)
          ~bound:(fun ~avail -> Xks_core.Rank.bound w ~avail)
          q.doc q.postings)
  in
  let slcas =
    span acc "topk.slca" (fun () ->
        if outcome.top = [] then [||] else slca_table q)
  in
  let hits =
    span acc "topk.prune" (fun () ->
        List.map
          (fun (cand : Xks_lca.Topk.candidate) ->
            let rtf = { Rtf.lca = cand.lca; knodes = cand.knodes } in
            let fragment =
              Xks_core.Prune.valid_contributor (Xks_core.Node_info.construct q rtf)
            in
            { Engine.fragment; rtf; score = cand.score;
              is_slca = Xks_util.Bsearch.mem slcas cand.lca; degraded = None })
          outcome.top)
  in
  if outcome.early_exit then c.early_exits <- c.early_exits + 1;
  c.scanned <- c.scanned + outcome.scanned;
  if Array.length q.postings > 0 then
    c.driver <-
      c.driver
      + Array.fold_left (fun m p -> min m (Array.length p)) max_int q.postings;
  (q, hits)

let mode_layers = function
  | Full -> [ "full.make"; "lca"; "rtf"; "full.prune"; "rank"; "full.slca" ]
  | Topk -> [ "topk.make"; "topk"; "topk.slca"; "topk.prune" ]

let prefix l = List.filteri (fun i _ -> i < top_k) l

(* Per query: one warm-up Engine.search, the timed untraced one (time
   and GC deltas), then both stage decompositions, checked against it.
   Without the warm-up the untraced call alone pays the cold caches and
   coverage reads low on cheap queries. *)
let query_layers ctx e queries =
  let mode = mode_of ctx in
  let acc = Hashtbl.create 16 in
  let c =
    { queries = 0; postings = 0; elcas = 0; kept_nodes = 0; raw_nodes = 0;
      early_exits = 0; scanned = 0; driver = 0; render_bytes = 0; wrong = 0 }
  in
  let minor = ref 0.0 and majors = ref 0 in
  List.iter
    (fun ws ->
      c.queries <- c.queries + 1;
      ignore (search_mode e mode ws);
      let mw0 = Gc.minor_words () and mj0 = (Gc.quick_stat ()).major_collections in
      let expected, ms = timed (fun () -> search_mode e mode ws) in
      minor := !minor +. (Gc.minor_words () -. mw0);
      majors := !majors + ((Gc.quick_stat ()).major_collections - mj0);
      add acc "search" ms;
      let t0 = now_s () in
      let q, rtfs, fragments, full_hits = full_stages acc c e ws in
      let full_wall = (now_s () -. t0) *. 1000.0 in
      let t1 = now_s () in
      let _, topk_hits = topk_stages acc c e ws in
      let topk_wall = (now_s () -. t1) *. 1000.0 in
      add acc "traced" (match mode with Full -> full_wall | Topk -> topk_wall);
      c.postings <-
        c.postings + Array.fold_left (fun s p -> s + Array.length p) 0 q.postings;
      let hits, kept =
        match mode with
        | Full -> (full_hits, List.map Fragment.size fragments)
        | Topk -> (topk_hits, List.map (fun (h : Engine.hit) -> Fragment.size h.fragment) topk_hits)
      in
      let raw_rtfs =
        match mode with
        | Full -> rtfs
        | Topk -> List.map (fun (h : Engine.hit) -> h.rtf) topk_hits
      in
      c.kept_nodes <- c.kept_nodes + List.fold_left ( + ) 0 kept;
      c.raw_nodes <-
        c.raw_nodes
        + List.fold_left (fun s r -> s + Fragment.size (Rtf.raw_fragment q r)) 0 raw_rtfs;
      let rendered =
        span acc "render" (fun () ->
            List.fold_left
              (fun s h -> s + String.length (Engine.render e h))
              0 (prefix hits))
      in
      c.render_bytes <- c.render_bytes + rendered;
      if fingerprint hits <> fingerprint expected then c.wrong <- c.wrong + 1;
      let bm25_prefix = prefix (Engine.search ~rank:`Bm25 e ws) in
      if fingerprint topk_hits <> fingerprint bm25_prefix then c.wrong <- c.wrong + 1)
    queries;
  (acc, c, !minor, !majors)

(* --- set-up layers --- *)

let setup_layers () =
  let reps = 3 in
  let runs =
    List.init reps (fun _ ->
        Gc.full_major ();
        let doc, parse = timed (fun () -> Xks_xml.Parser.parse_file corpus) in
        let idx, build = timed (fun () -> Inverted.build doc) in
        let (), save = timed (fun () -> Persist.save "trace.idx" idx) in
        let loaded, load = timed (fun () -> Persist.load "trace.idx" doc) in
        ((doc, loaded), (parse, build, save, load)))
  in
  let doc, idx = fst (List.hd (List.rev runs)) in
  let col f = median (List.map (fun (_, t) -> f t) runs) in
  let words = Obj.reachable_words (Obj.repr doc) in
  ( Engine.of_index idx,
    [
      m "xml.parse_ms" (col (fun (p, _, _, _) -> p)) "ms";
      m "index.build_ms" (col (fun (_, b, _, _) -> b)) "ms";
      m "index.save_ms" (col (fun (_, _, s, _) -> s)) "ms";
      m "index.load_ms" (col (fun (_, _, _, l) -> l)) "ms";
      m "index.image_bytes_per_doc_byte"
        (float (file_size "trace.idx") /. float (file_size corpus))
        "ratio";
      m "xml.tree_words_per_node"
        (float words /. float (Xks_xml.Tree.size doc))
        "words";
    ] )

(* --- exec: the pool against the same queries run one by one --- *)

let exec_layers ctx e queries ~sequential_ms =
  let mode = mode_of ctx in
  let batch pool =
    snd
      (timed (fun () ->
           match mode with
           | Full -> ignore (Exec.search_batch_results ~pool e queries)
           | Topk ->
               ignore
                 (Exec.search_batch_results ~pool ~rank:`Bm25 ~k:top_k e queries)))
  in
  (* The median of three passes on one pool, so a burst of host noise
     in one pass does not set the ratio. *)
  let with_pool size f =
    let pool = Pool.create ~size () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> median (List.init 3 (fun _ -> f pool)))
  in
  let wall_n = with_pool ctx.nproc batch in
  let wall_1 = with_pool 1 batch in
  [
    m "exec.pool_efficiency"
      (sequential_ms /. (float ctx.nproc *. wall_n))
      "ratio";
    m "exec.scaling" (wall_1 /. wall_n) "ratio";
  ]

(* --- cache, HTTP and serve: the serve stream --- *)

let cache_layers e stream count =
  let cache = Cache.create ~max_bytes:(server_cache_mb * 1024 * 1024) () in
  let budget =
    { Exec.deadline_ms = Some server_deadline_ms; max_nodes = None }
  in
  for i = 0 to count - 1 do
    ignore (Exec.search_batch_results ~cache ~budget e [ stream i ])
  done;
  let s = Cache.stats cache in
  [
    m "cache.hit_ratio" (ratio (float s.hits) (float (s.hits + s.misses))) "ratio";
    m "cache.evictions" (float s.evictions) "count";
  ]

let http_layer stream count =
  let reqs =
    Array.init count (fun i ->
        Loadgen.request ~close:false (Loadgen.search_target (stream i)))
  in
  let once () =
    snd
      (timed (fun () ->
           let r = Http.reader Http.default_limits in
           Array.iter
             (fun s ->
               Http.feed r s;
               match Http.next r with
               | Some _ -> ()
               | None -> failwith "request did not parse")
             reqs))
  in
  let ms = median (List.init 5 (fun _ -> once ())) in
  [ m "http.parse_us" (ms *. 1000.0 /. float count) "us" ]

(* Served minus in-process time for the first request of each of the
   stream's first [distinct] queries (a cache miss on the server), on a
   fresh connection each; then a short open-loop phase at the workload's
   fixed rate for generator lateness and the server's shedding. *)
let serve_layers ctx e stream ~open_requests =
  let srv, _ = start_server ctx in
  let seen = Hashtbl.create 64 in
  let overhead = ref [] and bytes = ref 0 and replies = ref 0 in
  let distinct = 60 in
  let i = ref 0 in
  while Hashtbl.length seen < distinct && !i < 100_000 do
    let ws = stream !i in
    incr i;
    let key = query_key ws in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let _, inproc = timed (fun () -> Engine.search e ws) in
      let (status, body), served =
        timed (fun () -> Loadgen.get_once socket (Loadgen.search_target ws))
      in
      incr replies;
      bytes := !bytes + String.length body;
      match answer_of_json body with
      | false, _, _ when status = 200 -> overhead := (served -. inproc) :: !overhead
      | _ -> ()
    end
  done;
  let st = new_replies () in
  let opened =
    Loadgen.drive ~socket ~conns:ctx.nproc
      ~target:(fun i -> Loadgen.search_target (stream i))
      ~on_reply:(on_reply st stream) ~rate:serve_rate ~count:open_requests
  in
  let rejected, timed_out = stats_counters () in
  Loadgen.stop srv;
  let wrong = verify_replies e st in
  ( wrong + st.failed + opened.errors,
    [
      m "serve.connect_ms" (median opened.connect_ms) "ms";
      m "serve.overhead_ms" (median !overhead) "ms";
      m "serve.response_bytes" (float !bytes /. float !replies) "bytes";
      m "serve.rejected" (float rejected) "count";
      m "serve.timed_out" (float timed_out) "count";
      m "serve.degraded" (float st.degraded) "count";
      m "loadgen.late_p99_ms" (percentile 0.99 opened.late_ms) "ms";
    ],
    [
      ("connect_samples", J.Int (List.length opened.connect_ms));
      ("overhead_samples", J.Int (List.length !overhead));
      ("late_samples", J.Int (List.length opened.late_ms));
    ] )

let trace_queries ctx e =
  match ctx.workload with
  | "batch-enum" ->
      let qs = batch_queries ctx e in
      Array.to_list (Array.sub qs 0 (min 120 (Array.length qs)))
  | _ ->
      let ((_, universe) as pairs) = topk_universe ctx e in
      dedup_queries (List.init 120 (fun i -> universe.(topk_request pairs i)))

let run ctx =
  run_command ~log ctx.xks [ "index"; corpus; "-o"; index_file ];
  let e, setup = setup_layers () in
  let queries = trace_queries ctx e in
  let acc, c, minor, majors = query_layers ctx e queries in
  let nq = float c.queries in
  let per_query name = get acc name /. nq in
  let mode = mode_of ctx in
  let mode_name = match mode with Full -> "full" | Topk -> "topk" in
  let covered = sum (List.map (get acc) (mode_layers mode)) in
  let query_metrics =
    [
      m "query.make_ms" (per_query (mode_name ^ ".make")) "ms";
      m "query.postings_per_query" (float c.postings /. nq) "count";
      m "lca.elca_ms" (per_query "lca") "ms";
      m "lca.elcas_per_query" (float c.elcas /. nq) "count";
      m "rtf.dispatch_ms" (per_query "rtf") "ms";
      m "prune.ms" (per_query (mode_name ^ ".prune")) "ms";
      m "prune.kept_ratio" (ratio (float c.kept_nodes) (float c.raw_nodes)) "ratio";
      m "rank.ms" (per_query "rank") "ms";
      m "slca_tag.ms" (per_query (mode_name ^ ".slca")) "ms";
      m "topk.scan_ms" (per_query "topk") "ms";
      m "topk.early_exit_ratio" (float c.early_exits /. nq) "ratio";
      m "topk.scanned_ratio" (ratio (float c.scanned) (float c.driver)) "ratio";
      m "render.text_ms" (per_query "render") "ms";
      m "render.bytes_per_query" (float c.render_bytes /. nq) "bytes";
      m "gc.minor_words_per_query" (minor /. nq) "words";
      m "gc.major_collections_per_1k" (float majors *. 1000.0 /. nq) "count";
      m "trace.coverage" (covered /. get acc "search") "ratio";
      m "trace.overhead" (get acc "traced" /. get acc "search") "ratio";
    ]
  in
  let exec = exec_layers ctx e queries ~sequential_ms:(get acc "search") in
  let serve_stream = request_stream ctx (serve_universe ctx e) in
  let count = serve_stream_requests in
  let cache = cache_layers e serve_stream count in
  let http = http_layer serve_stream count in
  let serve_failed, serve, samples =
    serve_layers ctx e serve_stream ~open_requests:(min count 500)
  in
  print_meta
    (host_meta ctx ~nodes:(Xks_xml.Tree.size (Engine.doc e))
    @ [
        ("mode", J.String mode_name);
        ("trace_queries", J.Int c.queries);
        ("serve_stream_requests", J.Int count);
        ("wrong_decompositions", J.Int c.wrong);
      ]
    @ samples);
  let correct = c.wrong = 0 && serve_failed = 0 in
  print_result ~correct ~attempted:c.queries ~failed:(c.wrong + serve_failed)
    (setup @ query_metrics @ exec @ cache @ http @ serve);
  correct
