(* Golden-fixture runner shared by the xks analyzers.

   Every analyzer (xkslint, xksrace, xksleak, xkscost) pins its
   behaviour on a fixture corpus: one directory per scenario under
   fixtures/, one expected output per scenario under expected/.  The
   per-fixture dune rules used to be copy-pasted across the four tools
   (one with-stdout-to + one diff stanza per fixture); this runner is
   that contract factored out, so each tool's dune file shrinks to a
   single rule and a new fixture needs no build-system edit — just the
   fixture tree and its pinned expected file.

   Contract enforced per fixture <name> (discovered from expected/):

     expected/<name>.out   run `TOOL fixtures/<name>`; stdout must equal
                           the pinned file, and the exit status must be
                           1 exactly when the pinned file is non-empty
                           (the analyzers' 0-clean/1-findings contract).
     expected/<name>.json  run `TOOL --json fixtures/<name>`; stdout
                           must equal the pinned file (exit 0 or 1).
     expected/<name>.err   run `TOOL fixtures/<name>`; the tool must
                           reject the input: exit 2, print nothing on
                           stdout, and print exactly the pinned file on
                           stderr.

   Every fixture directory must have a pinned .out or .err — an
   unpinned fixture is an error, not a silent skip.  Generated outputs
   are left next to the runner as <name>.out.gen / <name>.json.gen /
   <name>.err.gen.err for inspection; `--update` rewrites the pinned
   files from the actual output instead of diffing (run it via `dune
   exec` from the tool's source directory when a rule legitimately
   changes).

   Exit: 0 all fixtures match, 1 any mismatch, 2 usage error. *)

let usage () =
  prerr_endline
    "usage: golden --tool TOOL --fixtures DIR --expected DIR [--update]\n\
     \  [--tool-arg ARG]...  extra argument passed to TOOL before the \
     fixture";
  exit 2

type config = {
  tool : string;
  fixtures : string;
  expected : string;
  update : bool;
  tool_args : string list;
}

let parse_argv argv =
  let tool = ref None
  and fixtures = ref None
  and expected = ref None
  and update = ref false
  and tool_args = ref [] in
  let n = Array.length argv in
  let value i = if i + 1 >= n then usage () else argv.(i + 1) in
  let rec go i =
    if i < n then
      match argv.(i) with
      | "--tool" ->
          tool := Some (value i);
          go (i + 2)
      | "--fixtures" ->
          fixtures := Some (value i);
          go (i + 2)
      | "--expected" ->
          expected := Some (value i);
          go (i + 2)
      | "--tool-arg" ->
          tool_args := value i :: !tool_args;
          go (i + 2)
      | "--update" ->
          update := true;
          go (i + 1)
      | _ -> usage ()
  in
  go 1;
  match (!tool, !fixtures, !expected) with
  | Some tool, Some fixtures, Some expected ->
      { tool; fixtures; expected; update = !update;
        tool_args = List.rev !tool_args }
  | _ -> usage ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let entries_with_suffix dir suffix =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun e ->
         if Filename.check_suffix e suffix then
           Some (Filename.chop_suffix e suffix)
         else None)
  |> List.sort String.compare

(* Run the tool, capturing stdout into [out_file] and stderr into the
   sibling [out_file ^ ".err"]; returns the exit code and both
   streams. *)
let run_tool cfg ~args ~out_file =
  let err_file = out_file ^ ".err" in
  let cmd =
    Filename.quote_command cfg.tool ~stdout:out_file ~stderr:err_file
      (cfg.tool_args @ args)
  in
  let code = Sys.command cmd in
  (code, read_file out_file, read_file err_file)

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i la lb =
    match (la, lb) with
    | [], [] -> None
    | x :: la, y :: lb when String.equal x y -> go (i + 1) la lb
    | x :: _, y :: _ -> Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<end of output>")
    | [], y :: _ -> Some (i, "<end of output>", y)
  in
  go 1 la lb

(* A .err pin expects a rejected input (exit 2, empty stdout) and pins
   stderr; .out and .json pins expect the 0/1 findings contract and pin
   stdout — any other exit code there is a runner-level failure. *)
let check_one cfg ~failures ~name ~suffix ~args =
  let pinned = Filename.concat cfg.expected (name ^ suffix) in
  let out_file = name ^ suffix ^ ".gen" in
  let code, out, err = run_tool cfg ~args ~out_file in
  let rejects = String.equal suffix ".err" in
  if (not rejects) && code <> 0 && code <> 1 then begin
    Printf.eprintf "golden: %s exited %d (not 0/1) on: %s\n%s" cfg.tool code
      (String.concat " " args) err;
    exit 1
  end;
  let actual, actual_file =
    if rejects then (err, out_file ^ ".err") else (out, out_file)
  in
  if cfg.update then begin
    if not (Sys.file_exists pinned) || read_file pinned <> actual then begin
      write_file pinned actual;
      Printf.printf "golden: updated %s\n" pinned
    end
  end
  else begin
    let want = read_file pinned in
    if rejects && (code <> 2 || out <> "") then begin
      incr failures;
      Printf.eprintf
        "golden: %s: expected a rejection (exit 2, empty stdout), got exit \
         %d with %d byte(s) on stdout\n"
        name code (String.length out)
    end;
    if String.equal suffix ".out" && (code = 1) <> (want <> "") then begin
      incr failures;
      Printf.eprintf
        "golden: %s: exit %d disagrees with pinned expectation (%s findings)\n"
        name code
        (if want <> "" then "some" else "no")
    end;
    if not (String.equal want actual) then begin
      incr failures;
      match first_diff want actual with
      | None -> assert false
      | Some (line, e, a) ->
          Printf.eprintf
            "golden: %s: output differs from %s at line %d\n\
             \  expected: %s\n\
             \  actual:   %s\n\
             (full actual output left in %s)\n"
            name pinned line e a actual_file
    end
  end

let () =
  let cfg = parse_argv Sys.argv in
  if not (Sys.file_exists cfg.tool) then begin
    Printf.eprintf "golden: no such tool: %s\n" cfg.tool;
    exit 2
  end;
  List.iter
    (fun d ->
      if not (Sys.file_exists d && Sys.is_directory d) then begin
        Printf.eprintf "golden: no such directory: %s\n" d;
        exit 2
      end)
    [ cfg.fixtures; cfg.expected ];
  let outs = entries_with_suffix cfg.expected ".out" in
  let jsons = entries_with_suffix cfg.expected ".json" in
  let errs = entries_with_suffix cfg.expected ".err" in
  (* Every fixture must be pinned: a fixture tree with no expected .out
     or .err would otherwise never run and silently rot. *)
  Sys.readdir cfg.fixtures |> Array.to_list |> List.sort String.compare
  |> List.iter (fun f ->
         if
           Sys.is_directory (Filename.concat cfg.fixtures f)
           && not (List.mem f outs || List.mem f errs)
         then begin
           Printf.eprintf
             "golden: fixture %s/%s has no pinned %s/%s.out or .err\n"
             cfg.fixtures f cfg.expected f;
           exit 1
         end);
  let failures = ref 0 in
  List.iter
    (fun (suffix, names, flags) ->
      List.iter
        (fun name ->
          check_one cfg ~failures ~name ~suffix
            ~args:(flags @ [ Filename.concat cfg.fixtures name ]))
        names)
    [ (".out", outs, []); (".json", jsons, [ "--json" ]); (".err", errs, []) ];
  if !failures > 0 then begin
    Printf.eprintf "golden: %d mismatch(es)\n" !failures;
    exit 1
  end
