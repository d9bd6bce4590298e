(* Closed- and open-loop load generator for the HTTP serving layer
   (lib/serve), driving a real server over its Unix-domain socket.

   Phases of one [run]:

   1. capacity — closed loop: [workers] keep-alive clients, each with a
      request permanently in flight, measure the saturated service rate.
      This is the denominator for the offered-load levels.
   2. below / at — open loop at 0.5x / 1.0x capacity: arrivals follow a
      fixed schedule (t0 + i/rate) drained by a sender pool; latency is
      measured from the *scheduled* arrival, so generator backlog is
      charged to the server's latency column instead of silently
      disappearing (coordinated omission).
   3. above — closed loop with 3x(workers+queue) single-request
      connections: concurrency pinned above the admission bound, so the
      server must shed with well-formed 503s regardless of how fast this
      host can offer an open-loop rate.
   4. shutdown — [workers+queue] keep-alive clients hammering the
      server when [Server.request_shutdown] fires: every one must end
      with a final response + [connection: close] (drained) or a clean
      cut (aborted) — never a protocol error.

   The query mix is the same Zipf(1.1) repeat workload the throughput
   sweep uses.  Results land in BENCH_serving.json via
   [Bench_json.record_serving]; bench/json_check.ml enforces the
   overload contract (no shedding below capacity, shedding + bounded
   latency above it, loss-free shutdown). *)

module Engine = Xks_core.Engine
module Server = Xks_serve.Server
module J = Xks_trace.Json

(* --- minimal blocking HTTP/1.1 client over a Unix-domain socket --- *)

(* Client-side failures all collapse into one outcome bucket ([failed]),
   so the reply reader just raises. *)
exception Client_error of string

let client_timeout_s = 10.0

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO client_timeout_s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO client_timeout_s;
      fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
      raise e

let close_quietly fd =
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          raise (Client_error "connection closed during write")
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          raise (Client_error "write timeout")
  in
  go 0

(* [None] on clean EOF, [Some chunk] otherwise. *)
let read_chunk fd =
  let buf = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> None
    | n -> Some (Bytes.sub_string buf 0 n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        raise (Client_error "read timeout")
  in
  go ()

type reply = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let reply_header r name =
  let name = String.lowercase_ascii name in
  Option.map snd (List.find_opt (fun (n, _) -> n = name) r.headers)

let find_sub hay needle from =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go from

let parse_head head =
  match String.split_on_char '\n' head with
  | [] -> raise (Client_error "empty response head")
  | status_line :: header_lines ->
      let strip l =
        if l <> "" && l.[String.length l - 1] = '\r' then
          String.sub l 0 (String.length l - 1)
        else l
      in
      let status =
        match String.split_on_char ' ' (strip status_line) with
        | version :: code :: _
          when String.length version >= 5 && String.sub version 0 5 = "HTTP/"
          -> (
            match int_of_string_opt code with
            | Some c -> c
            | None -> raise (Client_error ("bad status line: " ^ status_line)))
        | _ -> raise (Client_error ("bad status line: " ^ status_line))
      in
      let headers =
        List.filter_map
          (fun line ->
            let line = strip line in
            if line = "" then None
            else
              match String.index_opt line ':' with
              | Some i when i > 0 ->
                  Some
                    ( String.lowercase_ascii (String.sub line 0 i),
                      String.trim
                        (String.sub line (i + 1)
                           (String.length line - i - 1)) )
              | Some _ | None ->
                  raise (Client_error ("bad header line: " ^ line)))
          header_lines
      in
      (status, headers)

(* Read exactly one response.  [None] on EOF before the first byte (the
   server closed a keep-alive connection between requests); EOF
   mid-response raises. *)
let read_reply fd =
  let buf = Buffer.create 512 in
  let rec fill_until_head () =
    match find_sub (Buffer.contents buf) "\r\n\r\n" 0 with
    | Some i -> i
    | None -> (
        match read_chunk fd with
        | Some chunk ->
            Buffer.add_string buf chunk;
            fill_until_head ()
        | None ->
            if Buffer.length buf = 0 then raise Exit
            else raise (Client_error "connection closed mid-head"))
  in
  match fill_until_head () with
  | exception Exit -> None
  | head_end ->
      let all = Buffer.contents buf in
      let status, headers = parse_head (String.sub all 0 head_end) in
      let content_length =
        match
          List.find_opt (fun (n, _) -> n = "content-length") headers
        with
        | Some (_, v) -> (
            match int_of_string_opt (String.trim v) with
            | Some n when n >= 0 -> n
            | Some _ | None -> raise (Client_error "bad content-length"))
        | None -> 0
      in
      let body = Buffer.create content_length in
      Buffer.add_string body
        (String.sub all (head_end + 4) (String.length all - head_end - 4));
      let rec fill_body () =
        if Buffer.length body < content_length then
          match read_chunk fd with
          | Some chunk ->
              Buffer.add_string body chunk;
              fill_body ()
          | None -> raise (Client_error "connection closed mid-body")
      in
      fill_body ();
      if Buffer.length body > content_length then
        raise (Client_error "excess bytes after response body");
      Some { status; headers; body = Buffer.contents body }

(* One-shot connections ask the server to close: the admission slot is
   released just before the response is written, instead of when the
   server notices our close — without this, back-to-back fresh
   connections can race the slot release and count phantom 503s. *)
let send_request ?(close = false) fd target =
  write_all fd
    (Printf.sprintf "GET %s HTTP/1.1\r\nhost: xks\r\n%s\r\n" target
       (if close then "connection: close\r\n" else ""))

(* --- per-request outcome classification --- *)

type outcome =
  | R_ok of { latency_ms : float; degraded : bool }
  | R_rejected  (* a well-formed 503: Retry-After + JSON error body *)
  | R_failed of string

let body_is_degraded body =
  (* The server always emits a "degraded" field; null means full
     fidelity.  A substring probe avoids parsing every body. *)
  match find_sub body "\"degraded\":null" 0 with
  | Some _ -> false
  | None -> ( match find_sub body "\"degraded\"" 0 with
    | Some _ -> true
    | None -> false)

let well_formed_rejection r =
  (match reply_header r "retry-after" with
  | Some v -> int_of_string_opt (String.trim v) <> None
  | None -> false)
  && (match J.parse r.body with
     | b -> ( match J.member "error" b with
       | Some (J.String _) -> true
       | Some (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.List _ | J.Obj _)
       | None -> false)
     | exception J.Parse_error _ -> false)

let classify ~latency_ms reply =
  match reply with
  | None -> R_failed "connection closed before response"
  | Some r ->
      if r.status = 200 then
        R_ok { latency_ms; degraded = body_is_degraded r.body }
      else if r.status = 503 then
        if well_formed_rejection r then R_rejected
        else R_failed "malformed 503 rejection"
      else R_failed (Printf.sprintf "unexpected status %d" r.status)

(* --- level accumulation --- *)

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable rejected : int;
  mutable failed : int;
  mutable degraded : int;
  mutable latencies : float list;  (* ok requests only *)
  mutable first_error : string option;
}

let tally () =
  {
    sent = 0;
    ok = 0;
    rejected = 0;
    failed = 0;
    degraded = 0;
    latencies = [];
    first_error = None;
  }

let record t outcome =
  t.sent <- t.sent + 1;
  match outcome with
  | R_ok { latency_ms; degraded } ->
      t.ok <- t.ok + 1;
      if degraded then t.degraded <- t.degraded + 1;
      t.latencies <- latency_ms :: t.latencies
  | R_rejected -> t.rejected <- t.rejected + 1
  | R_failed msg ->
      t.failed <- t.failed + 1;
      if t.first_error = None then t.first_error <- Some msg

let merge tallies =
  let total = tally () in
  List.iter
    (fun t ->
      total.sent <- total.sent + t.sent;
      total.ok <- total.ok + t.ok;
      total.rejected <- total.rejected + t.rejected;
      total.failed <- total.failed + t.failed;
      total.degraded <- total.degraded + t.degraded;
      total.latencies <- List.rev_append t.latencies total.latencies;
      if total.first_error = None then total.first_error <- t.first_error)
    tallies;
  total

let level_of_tally ~label ~mode ~offered_qps ~elapsed_s t =
  (match t.first_error with
  | Some msg ->
      prerr_endline
        (Printf.sprintf "loadgen: %s: first failure: %s" label msg)
  | None -> ());
  let sorted = Array.of_list t.latencies in
  Array.sort Float.compare sorted;
  let pct q = if Array.length sorted = 0 then 0.0 else Runner.percentile sorted q in
  {
    Bench_json.label;
    mode;
    offered_qps;
    sent = t.sent;
    ok = t.ok;
    rejected = t.rejected;
    failed = t.failed;
    degraded = t.degraded;
    elapsed_s;
    achieved_qps =
      (if elapsed_s > 0.0 then float_of_int t.ok /. elapsed_s else 0.0);
    p50_ms = pct 50.0;
    p95_ms = pct 95.0;
    p99_ms = pct 99.0;
  }

(* --- load phases --- *)

(* One request on an existing keep-alive connection.  Raises
   [Client_error] on protocol trouble; returns [None] when the server
   closed the connection between requests.  A send failure defers to the
   read: a rejecting or stopping server cuts the socket as soon as its
   final response is written, so the response (a 503, typically) may
   already be buffered on our side when our write gets EPIPE. *)
let keep_alive_roundtrip fd target =
  (try send_request fd target with Client_error _ -> ());
  let t0 = Unix.gettimeofday () in
  match read_reply fd with
  | None -> None
  | Some r -> Some (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Closed loop, keep-alive: [clients] connections, each with exactly one
   request in flight, until [duration_s] elapses.  This saturates the
   pool without ever crossing the admission bound — the capacity
   measurement. *)
let closed_loop_keepalive ~socket ~clients ~duration_s ~targets =
  let stop_at = Unix.gettimeofday () +. duration_s in
  let worker k () =
    let t = tally () in
    match connect socket with
    | exception e ->
        record t (R_failed (Printexc.to_string e));
        t
    | fd ->
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            let n = Array.length targets in
            let i = ref (k * 7919) in
            let rec go () =
              if Unix.gettimeofday () < stop_at then begin
                (match keep_alive_roundtrip fd targets.(!i mod n) with
                | Some (r, latency_ms) ->
                    record t (classify ~latency_ms (Some r))
                | None -> record t (R_failed "server closed keep-alive")
                | exception Client_error msg -> record t (R_failed msg));
                incr i;
                if t.failed = 0 then go ()
              end
            in
            go ();
            t)
  in
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init clients (fun k -> Domain.spawn (worker k))
  in
  let tallies = List.map Domain.join domains in
  (merge tallies, Unix.gettimeofday () -. t0)

(* Closed loop, one request per connection, concurrency pinned above the
   admission bound: the deterministic overload phase. *)
let closed_loop_overload ~socket ~clients ~duration_s ~targets =
  let stop_at = Unix.gettimeofday () +. duration_s in
  let worker k () =
    let t = tally () in
    let n = Array.length targets in
    let i = ref (k * 7919) in
    let rec go () =
      if Unix.gettimeofday () < stop_at then begin
        (match connect socket with
        | exception e -> record t (R_failed (Printexc.to_string e))
        | fd ->
            Fun.protect
              ~finally:(fun () -> close_quietly fd)
              (fun () ->
                (try send_request ~close:true fd targets.(!i mod n)
                 with Client_error _ -> ());
                let t0 = Unix.gettimeofday () in
                match read_reply fd with
                | reply ->
                    let latency_ms =
                      (Unix.gettimeofday () -. t0) *. 1000.0
                    in
                    record t (classify ~latency_ms reply)
                | exception Client_error msg -> record t (R_failed msg)));
        incr i;
        if t.failed = 0 then go ()
      end
    in
    go ();
    t
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init clients (fun k -> Domain.spawn (worker k)) in
  let tallies = List.map Domain.join domains in
  (merge tallies, Unix.gettimeofday () -. t0)

(* Open loop: [total] arrivals scheduled at [rate] per second, drained
   by [senders] domains over fresh connections.  Latency counts from the
   scheduled arrival, not from the moment a sender got around to the
   request. *)
let open_loop ~socket ~senders ~rate ~total ~targets =
  let next = Atomic.make 0 in
  let t0 = Unix.gettimeofday () +. 0.02 in
  let worker () =
    let t = tally () in
    let n = Array.length targets in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let scheduled = t0 +. (float_of_int i /. rate) in
        let wait = scheduled -. Unix.gettimeofday () in
        if wait > 0.0 then Unix.sleepf wait;
        (match connect socket with
        | exception e -> record t (R_failed (Printexc.to_string e))
        | fd ->
            Fun.protect
              ~finally:(fun () -> close_quietly fd)
              (fun () ->
                (* same send/close race as keep_alive_roundtrip: the 503
                   may be buffered even when our write fails *)
                (try send_request ~close:true fd targets.(i mod n)
                 with Client_error _ -> ());
                match read_reply fd with
                | reply ->
                    let latency_ms =
                      (Unix.gettimeofday () -. scheduled) *. 1000.0
                    in
                    record t (classify ~latency_ms reply)
                | exception Client_error msg -> record t (R_failed msg)));
        go ()
      end
    in
    go ();
    t
  in
  let domains = List.init senders (fun _ -> Domain.spawn worker) in
  let tallies = List.map Domain.join domains in
  (merge tallies, Unix.gettimeofday () -. t0)

(* --- shutdown burst --- *)

type client_end = C_completed | C_closed | C_failed of string

(* Keep-alive clients in a tight request loop; [request_shutdown] fires
   while all of them are in flight.  A drained client sees a final
   response with [connection: close]; an aborted one sees the socket
   cut.  Anything else is a protocol loss. *)
let shutdown_burst ~socket ~burst srv =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let worker () =
    match connect socket with
    | exception e -> C_failed (Printexc.to_string e)
    | fd ->
        Fun.protect
          ~finally:(fun () -> close_quietly fd)
          (fun () ->
            let rec go () =
              if Unix.gettimeofday () > deadline then
                C_failed "shutdown burst never terminated"
              else
                match keep_alive_roundtrip fd "/search?q=keyword+data" with
                | Some (r, _) ->
                    if r.status <> 200 && r.status <> 503 then
                      C_failed (Printf.sprintf "status %d" r.status)
                    else if
                      (* the server answers with connection: close once
                         the stop flag is up — that response is the
                         drain completing this client *)
                      match reply_header r "connection" with
                      | Some v -> String.lowercase_ascii v = "close"
                      | None -> false
                    then C_completed
                    else go ()
                | None -> C_closed
                | exception Client_error _ -> C_closed
            in
            go ())
  in
  let domains = List.init burst (fun _ -> Domain.spawn worker) in
  Unix.sleepf 0.15;
  Server.request_shutdown srv;
  List.map Domain.join domains

(* --- orchestration --- *)

let print_level (l : Bench_json.serving_level) =
  Printf.printf "%-9s %-6s %10.1f %8d %8d %8d %6d %6d %8.1f %8.2f %8.2f %8.2f\n"
    l.label l.mode l.offered_qps l.sent l.ok l.rejected l.failed l.degraded
    l.achieved_qps l.p50_ms l.p95_ms l.p99_ms

(* The p99 bound json_check enforces for accepted requests above
   capacity: a request admitted to the queue waits at most
   queue/workers service times plus its own, with one more for the
   request in flight when it arrived; the constant absorbs response
   writing and scheduling noise.  A service time is *usually* bounded
   by the deadline, but the ladder's last rung still has to complete,
   so on a large corpus a single degraded request can overrun it — the
   unit is therefore the larger of the deadline and the unloaded
   (capacity-phase) p99 actually measured on this host. *)
let latency_bound_ms ~workers ~queue ~deadline_ms ~service_p99_ms =
  (Float.max (float_of_int deadline_ms) service_p99_ms
  *. (2.0 +. (float_of_int queue /. float_of_int workers)))
  +. 500.0

let run ?(dataset = "dblp") ?(workers = 2) ?queue ?(deadline_ms = 200)
    ?(duration_s = 1.0) ?(level_cap = 2000) ?socket () =
  if workers < 1 then invalid_arg "Loadgen.run: workers must be >= 1";
  let queue = match queue with Some q -> q | None -> 2 * workers in
  let socket =
    match socket with
    | Some s -> s
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "xks-serving-%d.sock" (Unix.getpid ()))
  in
  let d = Datasets.find dataset in
  let engine = Runner.load d in
  let targets =
    (* Zipf(1.1) over the generated distinct queries, like the
       throughput sweep; the cycle order is the workload. *)
    let pool_queries =
      Array.of_list
        (Xks_datagen.Workload_gen.generate ~seed:77 ~count:24
           (Engine.index engine))
    in
    Array.of_list
      (List.map
         (fun ws -> "/search?q=" ^ String.concat "+" ws ^ "&limit=5")
         (Throughput.zipf_workload ~seed:4242 ~queries:512 pool_queries))
  in
  let cfg =
    {
      (Server.default_config ~socket_path:socket ()) with
      Server.workers;
      queue;
      deadline_ms = (if deadline_ms > 0 then Some deadline_ms else None);
      (* cache off: every request must do real query work, so capacity
         reflects the pipeline and overload actually overloads *)
      cache_mb = 0;
    }
  in
  let srv = Server.create cfg engine in
  let server_domain = Domain.spawn (fun () -> Server.run srv) in
  let capacity_tally, capacity_elapsed =
    closed_loop_keepalive ~socket ~clients:workers ~duration_s ~targets
  in
  let capacity_qps =
    if capacity_elapsed > 0.0 then
      float_of_int capacity_tally.ok /. capacity_elapsed
    else 0.0
  in
  let capacity_level =
    level_of_tally ~label:"capacity" ~mode:"closed" ~offered_qps:0.0
      ~elapsed_s:capacity_elapsed capacity_tally
  in
  let open_level label multiplier ~senders =
    let rate = Float.max 1.0 (capacity_qps *. multiplier) in
    let total =
      max 1 (min level_cap (int_of_float (rate *. duration_s)))
    in
    let t, elapsed =
      open_loop ~socket ~senders ~rate ~total ~targets
    in
    level_of_tally ~label ~mode:"open" ~offered_qps:rate ~elapsed_s:elapsed t
  in
  (* Below capacity the sender pool is capped at the admission bound, so
     even a worst-case arrival burst cannot exceed the server's slots:
     any 503 there is the server's fault, not the generator's. *)
  let below =
    open_level "below" 0.5 ~senders:(min 16 (workers + queue))
  in
  let at =
    open_level "at" 1.0 ~senders:(min 16 ((2 * (workers + queue)) + 2))
  in
  let above =
    let clients = min 24 (3 * (workers + queue)) in
    let t, elapsed =
      closed_loop_overload ~socket ~clients ~duration_s ~targets
    in
    level_of_tally ~label:"above" ~mode:"closed"
      ~offered_qps:(if elapsed > 0.0 then float_of_int t.sent /. elapsed
                    else 0.0)
      ~elapsed_s:elapsed t
  in
  let levels = [ capacity_level; below; at; above ] in
  let burst = workers + queue in
  let ends = shutdown_burst ~socket ~burst srv in
  let exit_ok =
    (match Domain.join server_domain with
    | () -> true
    | exception e ->
        prerr_endline ("loadgen: server domain died: " ^ Printexc.to_string e);
        false)
    && not (Sys.file_exists socket)
  in
  let shutdown =
    List.fold_left
      (fun acc e ->
        match e with
        | C_completed ->
            { acc with Bench_json.completed = acc.Bench_json.completed + 1 }
        | C_closed ->
            { acc with Bench_json.closed = acc.Bench_json.closed + 1 }
        | C_failed msg ->
            prerr_endline ("loadgen: shutdown client failed: " ^ msg);
            { acc with Bench_json.sd_failed = acc.Bench_json.sd_failed + 1 })
      {
        Bench_json.burst;
        completed = 0;
        closed = 0;
        sd_failed = 0;
        exit_ok;
      }
      ends
  in
  Printf.printf
    "\n\
     ## Serving (%s): workers=%d queue=%d deadline=%dms — capacity %.1f \
     qps\n"
    d.Datasets.name workers queue deadline_ms capacity_qps;
  Printf.printf "%-9s %-6s %10s %8s %8s %8s %6s %6s %8s %8s %8s %8s\n" "level"
    "mode" "offered" "sent" "ok" "rejected" "failed" "degr" "qps" "p50ms"
    "p95ms" "p99ms";
  List.iter print_level levels;
  Printf.printf
    "shutdown: burst=%d completed=%d closed=%d failed=%d exit_ok=%b\n"
    shutdown.Bench_json.burst shutdown.Bench_json.completed
    shutdown.Bench_json.closed shutdown.Bench_json.sd_failed
    shutdown.Bench_json.exit_ok;
  Bench_json.record_serving ~dataset:d.Datasets.name ~workers ~queue
    ~deadline_ms ~capacity_qps
    ~latency_bound_ms:
      (latency_bound_ms ~workers ~queue ~deadline_ms
         ~service_p99_ms:capacity_level.Bench_json.p99_ms)
    ~levels ~shutdown
