(* Output contract shared by the xks static analyzers.

   xkslint, xksrace, xksleak and xkscost are separate binaries with one
   contract: scan the directory roots given on the command line, print
   findings in the compiler's own location format (or one JSON object
   under [--json]), and exit 0 clean / 1 findings / 2 usage-or-parse
   errors.  This module is that contract, factored out so the four
   tools cannot drift: the finding record, the command line, the
   deterministic sort, the text and JSON printers and the exit logic
   all live here; the front end that reads the program is [Program].

   The JSON finding schema is shared by all tools:

     {"tool": <name>, "files_scanned": N,
      "findings": [{"file", "line", "cstart", "cend", "rule",
                    "message"}, ...]}

   with 1-based lines and 0-based column spans (compiler convention). *)

type finding = {
  file : string;
  line : int;
  cstart : int;  (* column span, 0-based, compiler convention *)
  cend : int;
  rule : string;
  msg : string;
}

(* --- deterministic ordering: file, then line, then column, then rule --- *)

let sort findings =
  List.sort
    (fun a b ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = Int.compare a.cstart b.cstart in
          if c <> 0 then c else String.compare a.rule b.rule)
    findings

(* --- command line: [--json] [--rules ID[,ID...]] plus directory roots --- *)

type options = {
  json : bool;
  rules : string list option;  (* None = all rules enabled *)
  roots : string list;
}

let usage ~tool ~with_rules =
  Printf.eprintf "usage: %s [--json]%s DIR...\n" tool
    (if with_rules then " [--rules ID[,ID...]]" else "");
  exit 2

let parse_argv_opts ?known_rules ~tool argv =
  let json = ref false in
  let rules = ref None in
  let roots = ref [] in
  let n = Array.length argv in
  let rec go i =
    if i < n then
      match argv.(i) with
      | "--json" ->
          json := true;
          go (i + 1)
      | "--rules" -> (
          match known_rules with
          | None ->
              Printf.eprintf "%s: --rules is not supported by this tool\n" tool;
              exit 2
          | Some known ->
              if i + 1 >= n then usage ~tool ~with_rules:true;
              let ids =
                String.split_on_char ',' argv.(i + 1)
                |> List.map String.trim
                |> List.filter (fun s -> s <> "")
              in
              if ids = [] then usage ~tool ~with_rules:true;
              List.iter
                (fun id ->
                  if not (List.mem id known) then begin
                    Printf.eprintf "%s: unknown rule id %S (known: %s)\n" tool
                      id
                      (String.concat ", " known);
                    exit 2
                  end)
                ids;
              rules := Some ids;
              go (i + 2))
      | arg ->
          roots := arg :: !roots;
          go (i + 1)
  in
  go 1;
  let roots = List.rev !roots in
  if roots = [] then usage ~tool ~with_rules:(known_rules <> None);
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "%s: no such file or directory: %s\n" tool r;
        exit 2
      end)
    roots;
  { json = !json; rules = !rules; roots }

let rule_enabled opts id =
  match opts.rules with None -> true | Some ids -> List.mem id ids

(* --- output --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_text f =
  Printf.printf "File \"%s\", line %d, characters %d-%d:\n[%s] %s\n" f.file
    f.line f.cstart f.cend f.rule f.msg

let print_json ~tool ~files_scanned findings =
  print_string "{\n";
  Printf.printf "  \"tool\": \"%s\",\n" tool;
  Printf.printf "  \"files_scanned\": %d,\n" files_scanned;
  Printf.printf "  \"findings\": [";
  List.iteri
    (fun i f ->
      Printf.printf
        "%s\n    {\"file\": \"%s\", \"line\": %d, \"cstart\": %d, \"cend\": \
         %d, \"rule\": \"%s\", \"message\": \"%s\"}"
        (if i = 0 then "" else ",")
        (json_escape f.file) f.line f.cstart f.cend (json_escape f.rule)
        (json_escape f.msg))
    findings;
  if findings <> [] then print_string "\n  ";
  print_string "]\n}\n"

(* Print the (sorted) findings and exit with the shared contract: 0
   clean, 1 findings (with a one-line summary on stderr in text mode). *)
let report ~tool ~json ~files_scanned findings =
  let findings = sort findings in
  if json then print_json ~tool ~files_scanned findings
  else List.iter print_text findings;
  match findings with
  | [] -> exit 0
  | _ :: _ ->
      if not json then
        Printf.eprintf "%s: %d finding(s) in %d file(s) (%d files scanned)\n"
          tool (List.length findings)
          (List.length
             (List.sort_uniq String.compare
                (List.map (fun f -> f.file) findings)))
          files_scanned;
      exit 1
