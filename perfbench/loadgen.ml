(* HTTP load against a real [xks serve] process over its Unix-domain
   socket: server start/stop, a blocking client for probes, and one
   single-threaded select loop that drives an open-loop schedule with a
   fresh connection per request. *)

let now_s = Util.now_s

exception Client_error of string

(* Keywords are tokenizer output (lowercase alphanumerics), but encode
   anything else so a request line can never be malformed. *)
let encode w =
  let b = Buffer.create (String.length w) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' ->
          Buffer.add_char b c
      | c -> Printf.bprintf b "%%%02X" (Char.code c))
    w;
  Buffer.contents b

let search_target ws = "/search?q=" ^ String.concat "+" (List.map encode ws)

let request ~close target =
  Printf.sprintf "GET %s HTTP/1.1\r\nhost: xks\r\n%s\r\n" target
    (if close then "connection: close\r\n" else "")

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let close_quietly fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let write_all fd s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* --- response framing --- *)

let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let content_length head =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ':' with
      | Some i
        when String.lowercase_ascii (String.trim (String.sub line 0 i))
             = "content-length" ->
          int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | Some _ | None -> acc)
    0
    (String.split_on_char '\n' head)

(* [Some (status, body)] once [buf] holds one complete response. *)
let parse_response buf =
  let s = Buffer.contents buf in
  match find_head_end s with
  | None -> None
  | Some h ->
      let head = String.sub s 0 h in
      let len = content_length head in
      if String.length s < h + 4 + len then None
      else
        let status =
          match String.split_on_char ' ' head with
          | _ :: code :: _ -> int_of_string code
          | _ -> raise (Client_error "bad status line")
        in
        Some (status, String.sub s (h + 4) len)

let chunk = Bytes.create 65536

(* Read what is available into [buf]; [false] on end of stream. *)
let read_into fd buf =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes buf chunk 0 n;
      true
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> true
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false

(* One request on a fresh connection that the server closes after the
   answer, so its admission slot is free before the next probe. *)
let get_once socket target =
  let fd = connect socket in
  Fun.protect
    ~finally:(fun () -> close_quietly fd)
    (fun () ->
      write_all fd (request ~close:true target);
      let buf = Buffer.create 1024 in
      let rec go () =
        match parse_response buf with
        | Some r -> r
        | None ->
            if read_into fd buf then go ()
            else raise (Client_error "connection closed mid-response")
      in
      go ())

(* --- the server process --- *)

type server = { pid : int }

(* xksbench kills every server it started, whatever path it exits by. *)
let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
      ignore (Util.wait_pid pid))
    !live;
  live := []

let () = at_exit kill_all

(* Spawn [xks serve] and return it with the seconds until [/health]
   answered 200. *)
let start ~xks ~log ~corpus ~index ~socket ~workers =
  (try Unix.unlink socket with Unix.Unix_error (_, _, _) -> ());
  let t0 = now_s () in
  let pid =
    Util.spawn ~log xks
      [ "serve"; corpus; "--socket"; socket; "--index"; index;
        "--workers"; string_of_int workers ]
  in
  live := pid :: !live;
  let rec wait () =
    let healthy =
      match get_once socket "/health" with
      | 200, _ -> true
      | _ -> false
      | exception (Unix.Unix_error (_, _, _) | Client_error _) -> false
    in
    if healthy then now_s () -. t0
    else if now_s () -. t0 > 60.0 then failwith "xks serve never became healthy"
    else (
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("xks serve exited during start-up; see " ^ log));
      Unix.sleepf 0.001;
      wait ())
  in
  let setup_s = wait () in
  ({ pid }, setup_s)

let stop srv =
  Unix.kill srv.pid Sys.sigterm;
  let status = Util.wait_pid srv.pid in
  live := List.filter (fun p -> p <> srv.pid) !live;
  match status with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n | Unix.WSIGNALED n | Unix.WSTOPPED n ->
      failwith (Printf.sprintf "xks serve ended with status %d" n)

(* --- the load loop --- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  req : int;  (** index of the request in flight *)
  sent : float;
}

type outcome = {
  late_ms : float list;  (** send time minus due time *)
  connect_ms : float list;  (** time in connect(2) *)
  errors : int;  (** connect, protocol and timeout failures *)
}

let request_timeout_s = 10.0

(* Drive requests [0 .. count - 1] from [target] open loop: request [i]
   is due at [t0 + i/rate] and is sent on a fresh connection once at
   most [conns] are open.  [on_reply i status body] sees every complete
   response. *)
let drive ~socket ~conns ~target ~on_reply ~rate ~count =
  let t0 = now_s () +. 0.005 in
  let due i = t0 +. (float i /. rate) in
  let next = ref 0 in
  let open_ = Hashtbl.create 8 in
  let late = ref [] and connects = ref [] and errors = ref 0 in
  let close c =
    close_quietly c.fd;
    Hashtbl.remove open_ c.fd
  in
  let fail c =
    incr errors;
    close c
  in
  let launch i =
    let t = now_s () in
    match connect socket with
    | fd -> (
        connects := ((now_s () -. t) *. 1000.0) :: !connects;
        let c = { fd; buf = Buffer.create 1024; req = i; sent = now_s () } in
        Hashtbl.replace open_ fd c;
        late := ((c.sent -. due i) *. 1000.0) :: !late;
        try write_all fd (request ~close:true (target i))
        with Unix.Unix_error (_, _, _) -> fail c)
    | exception Unix.Unix_error (_, _, _) -> incr errors
  in
  while !next < count || Hashtbl.length open_ > 0 do
    while !next < count && Hashtbl.length open_ < conns && now_s () >= due !next do
      launch !next;
      incr next
    done;
    let now = now_s () in
    Hashtbl.iter
      (fun _ c -> if now -. c.sent > request_timeout_s then fail c)
      (Hashtbl.copy open_);
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) open_ [] in
    let wait =
      if !next < count && Hashtbl.length open_ < conns then
        Float.max 0.0 (due !next -. now)
      else 0.05
    in
    let ready =
      match Unix.select fds [] [] wait with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c = Hashtbl.find open_ fd in
        if not (read_into fd c.buf) then fail c
        else
          match parse_response c.buf with
          | None -> ()
          | Some (status, body) ->
              on_reply c.req status body;
              close c
          | exception (Client_error _ | Failure _) -> fail c)
      ready
  done;
  { late_ms = !late; connect_ms = !connects; errors = !errors }
