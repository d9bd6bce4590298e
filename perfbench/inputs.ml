(* Workload inputs shared by the untraced workloads and the traced run:
   fixed parameters, the run context, corpus and index set-up, the
   seeded query generators and the answer checks. *)

module Engine = Xks_core.Engine
module Fragment = Xks_core.Fragment
module Inverted = Xks_index.Inverted
module Workload_gen = Xks_datagen.Workload_gen
module J = Xks_trace.Json
open Util

(* --- fixed inputs (README.md, "Inputs") --- *)

let entries = 12000
let setup_reps = 7
let zipf_s = 1.1
let top_k = 10

(* Offered load of the traced run's open-loop phase against a real
   server, in requests per second.  Absolute on purpose: parent and
   change see the same load. *)
let serve_rate = 200.0

(* Length of the Zipf request stream the traced run replays through
   the cache and the HTTP parser. *)
let serve_stream_requests = 4000

(* The server's defaults, mirrored by the traced cache replay. *)
let server_cache_mb = 8
let server_deadline_ms = 200
let corpus = "corpus.xml"
let index_file = "corpus.idx"
let socket = "xks.sock"
let log = "xks.log"

(* The structural head every DBLP entry carries. *)
let head = [ "year"; "pages"; "author"; "title" ]

let rec pairs = function
  | [] -> []
  | x :: rest -> List.map (fun y -> [ x; y ]) rest @ pairs rest

type ctx = {
  workload : string;
  seed : int;
  wseed : int;  (** workload seed, derived from --seed *)
  seconds : float;
  trace : bool;
  xks : string;
  nproc : int;
}

type mode = Full  (** ValidRTF, full enumeration, heuristic rank *) | Topk

let mode_of ctx = if ctx.workload = "topk-interactive" then Topk else Full

let search_mode e mode ws =
  match mode with
  | Full -> Engine.search e ws
  | Topk -> Engine.search ~rank:`Bm25 ~k:top_k e ws

let gen_corpus ctx =
  run_command ~log ctx.xks
    [ "gen"; "dblp"; "-o"; corpus; "--size"; string_of_int entries;
      "--seed"; string_of_int ctx.seed ]

(* One parse + build, and its time in ms. *)
let build_engine () =
  Gc.full_major ();
  timed (fun () -> Engine.of_file corpus)

(* The other [setup_reps - 1] parse + build times, in ms, each in a
   forked child of its own ({!Util.in_child}), so the peak RSS of the
   measured process holds one build only.  Builds in one process ran at
   one speed, 150 or 240 ms by the run; one child per build spreads
   each run's median over several processes. *)
let more_setup_times () =
  List.init (setup_reps - 1) (fun _ -> in_child (fun () -> snd (build_engine ())))

(* --- workload inputs --- *)

(* batch-enum: [batch_count] distinct queries, cut into batches of
   [batch_size]; the set is a whole number of batches, so every pass
   submits the same batches. *)
let batch_count = 2048
let batch_size = 32

let batch_queries ctx e =
  let gen =
    Workload_gen.generate ~min_arity:2 ~max_arity:4 ~seed:ctx.wseed
      ~count:(batch_count + 256) (Engine.index e)
  in
  let qs =
    Array.of_list
      (List.filteri (fun i _ -> i < batch_count) (dedup_queries (pairs head @ gen)))
  in
  if Array.length qs < batch_count then failwith "too few distinct batch queries";
  shuffle (Random.State.make [| ctx.wseed |]) qs;
  qs

(* batch-enum's batches, as ids into [qs].  The queries are ranked by a
   cost proxy, the summed df of their words plus [answer_nodes.(i)], the
   nodes of query [i]'s answer fragments, and dealt to the batches in
   snake order, so every batch holds an even share of the expensive ones
   and lists them first.  Cut from the shuffled order instead (1024
   queries, 32 batches), the costliest batch took 10.8 times as long as
   the cheapest (3.3 times dealt), and the per-batch p99 followed whichever batch the seed
   crowded with head pairs. *)
let batch_plan e qs answer_nodes =
  let idx = Engine.index e in
  let cost i =
    List.fold_left (fun s w -> s + Inverted.df idx w) answer_nodes.(i) qs.(i)
  in
  let order = Array.init (Array.length qs) Fun.id in
  Array.stable_sort (fun a b -> compare (cost b) (cost a)) order;
  let batches = Array.length qs / batch_size in
  Array.init batches (fun b ->
      List.init batch_size (fun j ->
          let col = if j mod 2 = 0 then b else batches - 1 - b in
          order.((j * batches) + col)))

(* [n] distinct keyword pairs drawn from [words]. *)
let draw_pairs rng words n =
  let words = Array.of_list words in
  let seen = Hashtbl.create n in
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      let a = words.(Random.State.int rng (Array.length words)) in
      let b = words.(Random.State.int rng (Array.length words)) in
      let key = query_key [ a; b ] in
      if a = b || Hashtbl.mem seen key then go acc k
      else (
        Hashtbl.add seen key ();
        go ([ a; b ] :: acc) (k - 1))
  in
  go [] n

(* topk-interactive's pairs: the high-df class is every pair of the
   [topk_high_words] highest-df words, structural labels every corpus
   carries, so the class hardly moves with the seed; the medium-df
   class is [topk_medium_pairs] pairs of medium-band words, a few ms
   each.  (Rare-band pairs cost well under a millisecond, and their
   median moved by a fifth between runs on a shared VM.)  The universe
   holds the high pairs first; the count of them comes with it. *)
let topk_high_words = 9
let topk_medium_pairs = 400

let topk_universe ctx e =
  let idx = Engine.index e in
  let bands = Workload_gen.bands idx in
  let by_df =
    List.sort
      (fun a b -> compare (Inverted.df idx b, a) (Inverted.df idx a, b))
      (List.concat_map snd bands)
  in
  let high = pairs (List.filteri (fun i _ -> i < topk_high_words) by_df) in
  let medium =
    match List.assoc_opt Workload_gen.Medium bands with
    | Some ws ->
        draw_pairs (Random.State.make [| ctx.wseed |]) ws topk_medium_pairs
    | None -> failwith "no medium band"
  in
  (List.length high, Array.of_list (high @ medium))

(* The serve stream's universe: Workload_gen queries of arity 2-3 with no
   word from the frequent band.  A frequent word puts thousands of
   keyword nodes under the root RTF, and a query holding one costs tens
   of ms whatever its other words; the tail would then hinge on which
   frequent words a seed happens to draw.  Without them a miss costs
   about a millisecond, so the serving layers dominate even the tail.
   (High-df queries are topk-interactive's and batch-enum's.) *)
let serve_universe_size = 400

let serve_universe ctx e =
  let idx = Engine.index e in
  let frequent = Hashtbl.create 512 in
  (match List.assoc_opt Workload_gen.Frequent (Workload_gen.bands idx) with
  | Some ws -> List.iter (fun w -> Hashtbl.replace frequent w ()) ws
  | None -> ());
  let qs =
    Workload_gen.generate ~min_arity:2 ~max_arity:3 ~seed:ctx.wseed
      ~count:(40 * serve_universe_size) idx
    |> List.filter (List.for_all (fun w -> not (Hashtbl.mem frequent w)))
    |> dedup_queries
    |> List.filteri (fun i _ -> i < serve_universe_size)
    |> Array.of_list
  in
  if Array.length qs < serve_universe_size then
    failwith "too few distinct serve queries";
  shuffle (Random.State.make [| ctx.wseed |]) qs;
  qs

(* topk-interactive's request [i], as an index into the universe:
   every [topk_high_every]th request is high-df, the others medium-df,
   and each class serves its pairs in turn.  The one-in-five share is a
   fixed, arbitrary ratio: small enough that the median request is a
   medium-df one and large enough that the p99 is a high-df one. *)
let topk_high_every = 5

let topk_request (n_high, universe) i =
  let n_medium = Array.length universe - n_high in
  if i mod topk_high_every = topk_high_every - 1 then
    i / topk_high_every mod n_high
  else n_high + ((i - (i / topk_high_every)) mod n_medium)

(* The serve stream: Zipf(1.1) repeats over [universe], so cache
   inserts happen beside cache hits. *)
let request_stream ctx universe =
  let rank = zipf_stream ~seed:ctx.wseed ~s:zipf_s (Array.length universe) in
  fun i -> universe.(rank i)

(* --- reporting --- *)

let host_meta ctx ~nodes =
  [
    ("workload", J.String ctx.workload);
    ("trace", J.Bool ctx.trace);
    ("nproc", J.Int ctx.nproc);
    ("ocaml_version", J.String Sys.ocaml_version);
    ( "ocamlrunparam",
      match Sys.getenv_opt "OCAMLRUNPARAM" with
      | Some v -> J.String v
      | None -> J.Null );
    ( "corpus",
      J.Obj
        [
          ("generator", J.String "xks gen dblp");
          ("seed", J.Int ctx.seed);
          ("entries", J.Int entries);
          ("nodes", J.Int nodes);
          ("bytes", J.Int (file_size corpus));
        ] );
    ("workload_seed", J.Int ctx.wseed);
    ("seconds", J.Float ctx.seconds);
  ]

let print_meta fields = print_endline ("# meta " ^ J.to_string (J.Obj fields))
let m name value unit_ = { name; value; unit_ }

type e2e = {
  setup_s : float;
  throughput_qps : float;
  latencies : float list;
  attempted : int;
  wrong : int;  (** answers unlike the reference *)
  degraded : int;
  rss_mb : float;
  nodes : int;  (** corpus tree size *)
  extra : (string * J.t) list;
}

let report_e2e ctx r =
  let n = float r.attempted in
  print_meta
    (host_meta ctx ~nodes:r.nodes
    @ [
        ("latency_samples", J.Int (List.length r.latencies));
        ("setup_samples", J.Int setup_reps);
        ("failed_ratio", J.Float (float r.wrong /. n));
        ("degraded_ratio", J.Float (float r.degraded /. n));
        ("wrong_answers", J.Int r.wrong);
        ( "peak_rss_scope",
          J.String
            "one parse+build, the workload inputs and the timed loop; the \
             other set-up repeats and the reference ran in forked children" );
      ]
    @ r.extra);
  let correct = r.wrong = 0 in
  print_result ~correct ~attempted:r.attempted ~failed:r.wrong
    [
      m "setup_s" r.setup_s "s";
      m "throughput_qps" r.throughput_qps "1/s";
      m "latency_p50_ms" (percentile 0.5 r.latencies) "ms";
      m "latency_p99_ms" (percentile 0.99 r.latencies) "ms";
      m "peak_rss_mb" r.rss_mb "MB";
    ];
  correct

(* --- answers --- *)

let render_bytes e hits =
  List.fold_left (fun acc h -> acc + String.length (Engine.render e h)) 0 hits

(* What a response promises: [total] and each returned hit's score (as
   the server prints it) and node count. *)
let answer_of_json body =
  let j = J.parse body in
  let field name = match J.member name j with Some v -> v | None -> J.Null in
  let degraded = field "degraded" <> J.Null in
  let total = Option.value ~default:(-1) (J.to_int (field "total")) in
  let hits =
    Option.value ~default:[] (J.to_list (field "hits"))
    |> List.map (fun h ->
           let g name =
             match J.member name h with
             | Some v -> Option.value ~default:nan (J.to_float v)
             | None -> nan
           in
           (g "score", int_of_float (g "nodes")))
  in
  (degraded, total, hits)

let answer_of_hits (hits : Engine.hit list) =
  ( List.length hits,
    List.filteri (fun i _ -> i < top_k) hits
    |> List.map (fun (h : Engine.hit) ->
           (float_of_string (Printf.sprintf "%.6g" h.score),
            Fragment.size h.fragment)) )

type replies = {
  mutable failed : int;
  mutable degraded : int;
  seen : (string, string list * (int * (float * int) list)) Hashtbl.t;
      (** first full-fidelity answer per query *)
  mutable mismatched : int;  (** answers differing from the first one *)
  answers : (string, int) Hashtbl.t;
      (** full-fidelity answers per query, to weigh a wrong first one *)
}

let new_replies () =
  { failed = 0; degraded = 0; seen = Hashtbl.create 64; mismatched = 0;
    answers = Hashtbl.create 64 }

let on_reply st stream i status body =
  if status <> 200 then st.failed <- st.failed + 1
  else
    match answer_of_json body with
    | exception J.Parse_error _ -> st.failed <- st.failed + 1
    | true, _, _ -> st.degraded <- st.degraded + 1
    | false, total, hits -> (
        let q = stream i in
        let key = query_key q in
        Hashtbl.replace st.answers key
          (1 + Option.value ~default:0 (Hashtbl.find_opt st.answers key));
        match Hashtbl.find_opt st.seen key with
        | None -> Hashtbl.add st.seen key (q, (total, hits))
        | Some (_, first) ->
            if first <> (total, hits) then st.mismatched <- st.mismatched + 1)

(* Check every distinct first answer against sequential Engine.search;
   a wrong first answer makes every answer to that query wrong, and any
   answer unlike the first is wrong too. *)
let verify_replies e st =
  Hashtbl.fold
    (fun key (q, answer) wrong ->
      if answer_of_hits (Engine.search e q) = answer then wrong
      else wrong + Hashtbl.find st.answers key)
    st.seen st.mismatched

let stats_counters () =
  match Loadgen.get_once socket "/stats" with
  | 200, body ->
      let j = J.parse body in
      let get k =
        match Option.bind (J.member k j) J.to_int with Some v -> v | None -> 0
      in
      (get "rejected", get "timed_out")
  | status, _ -> failwith (Printf.sprintf "/stats answered %d" status)

let start_server ctx =
  Loadgen.start ~xks:ctx.xks ~log ~corpus ~index:index_file ~socket
    ~workers:ctx.nproc

