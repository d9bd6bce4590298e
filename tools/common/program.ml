(* The program model shared by the xks static analyzers.

   xkslint, xksrace, xksleak and xkscost each check one family of
   rules, but they all read the same program the same way: walk the
   directory roots, parse every [.ml] once with the compiler front end,
   lex the tool's own [(* <tool>: verb ... *)] annotations, and resolve
   names by their last component and the file's module aliases.  This
   module is that front end, so an analyzer keeps only its rule family:
   the loader, the annotation lexer (driven by a per-tool verb table),
   the name helpers, a generic fixpoint and the driver that ties them to
   the shared output contract ([Report]). *)

module StringSet = Set.Make (String)

(* --- locations and names --- *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum

let cols_of (loc : Location.t) =
  ( loc.loc_start.pos_cnum - loc.loc_start.pos_bol,
    loc.loc_end.pos_cnum - loc.loc_end.pos_bol )

let last_of (lid : Longident.t) =
  match Longident.flatten lid with
  | [] -> ""
  | l -> List.nth l (List.length l - 1)

let qualifier (lid : Longident.t) =
  match lid with
  | Longident.Ldot (path, _) -> (
      match Longident.flatten path with
      | [] -> None
      | l -> Some (List.nth l (List.length l - 1)))
  | Longident.Lident _ | Longident.Lapply _ -> None

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let rec peel (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> peel e
  | _ -> e

let rec path_name (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> last_of txt
  | Pexp_field (_, { txt; _ }) -> last_of txt
  | Pexp_constraint (e, _) -> path_name e
  | _ -> "?"

let idents_of expr =
  let acc = ref StringSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt = Lident x; _ } -> acc := StringSet.add x !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  !acc

(* --- annotations --- *)

type shape = Bare | Opt_text | Word | Word_reason
type 'a verb = string * shape * (string -> 'a option)
type 'a anns = (int, 'a list) Hashtbl.t

(* Split off the first space-separated word: ["a b c"] -> ("a", "b c"). *)
let split_word s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some sp ->
      ( String.sub s 0 sp,
        String.trim (String.sub s (sp + 1) (String.length s - sp - 1)) )

let find_from text from pat =
  let plen = String.length pat and tlen = String.length text in
  let rec go i =
    if i + plen > tlen then None
    else if String.equal (String.sub text i plen) pat then Some i
    else go (i + 1)
  in
  go from

(* The full comment-opening form: a looser match (say, on "xksrace: "
   alone) would fire on prose that merely mentions the tool. *)
let scan_annotations ~tool ~verbs path src : _ anns =
  let marker = "(* " ^ tool ^ ": " in
  let anns = Hashtbl.create 16 in
  List.iteri
    (fun i text ->
      match find_from text 0 marker with
      | None -> ()
      | Some at ->
          let start = at + String.length marker in
          let stop =
            Option.value (find_from text start "*)")
              ~default:(String.length text)
          in
          let body = String.trim (String.sub text start (stop - start)) in
          let verb, arg = split_word body in
          let word, reason = split_word arg in
          let line = i + 1 in
          let ann =
            match
              List.find_opt (fun (v, _, _) -> String.equal v verb) verbs
            with
            | Some (_, shape, build)
              when (match shape with
                   | Bare -> arg = ""
                   | Opt_text -> true
                   | Word -> arg <> ""
                   | Word_reason -> reason <> "") ->
                build word
            | Some _ | None -> None
          in
          match ann with
          | Some a ->
              let prev =
                Option.value (Hashtbl.find_opt anns line) ~default:[]
              in
              Hashtbl.replace anns line (a :: prev)
          | None ->
              Printf.eprintf "%s: %s: line %d: unrecognized annotation %S\n"
                tool path line body;
              exit 2)
    (String.split_on_char '\n' src);
  anns

let anns_at anns line =
  let at l = Option.value (Hashtbl.find_opt anns l) ~default:[] in
  at line @ at (line - 1)

(* --- the loader --- *)

type 'a file = {
  path : string;
  modname : string;
  anns : 'a anns;
  aliases : (string, string) Hashtbl.t;
  structure : Parsetree.structure;
}

let rec walk_dir path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if String.length entry > 0 && not (Char.equal entry.[0] '.') then
          walk_dir (Filename.concat path entry) acc
        else acc)
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_implementation ~tool path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | structure -> structure
  | exception Syntaxerr.Error _ ->
      Printf.eprintf "%s: %s: syntax error\n" tool path;
      exit 2

let rec iter_items f structure =
  List.iter
    (fun (si : Parsetree.structure_item) ->
      match si.pstr_desc with
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure s; _ }; _ } ->
          iter_items f s
      | d -> f d)
    structure

(* [module X = Path.To.Y] bindings, at any structure depth: X -> "Y". *)
let aliases_of structure =
  let aliases = Hashtbl.create 8 in
  iter_items
    (function
      | Pstr_module
          { pmb_name = { txt = Some name; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ } ->
          Hashtbl.replace aliases name (last_of txt)
      | _ -> ())
    structure;
  aliases

let load ~tool ~verbs path =
  let src = read_file path in
  let structure = parse_implementation ~tool path src in
  {
    path;
    modname = module_of_path path;
    anns = scan_annotations ~tool ~verbs path src;
    aliases = aliases_of structure;
    structure;
  }

let resolve file q = Option.value (Hashtbl.find_opt file.aliases q) ~default:q

(* --- fixpoint and driver --- *)

let fixpoint step items =
  let rec round () =
    if List.fold_left (fun changed x -> step x || changed) false items then
      round ()
  in
  round ()

let run ~tool ?known_rules ~verbs analyze =
  let opts = Report.parse_argv_opts ?known_rules ~tool Sys.argv in
  let paths = List.concat_map (fun r -> List.rev (walk_dir r [])) opts.roots in
  let files = List.map (load ~tool ~verbs) paths in
  Report.report ~tool ~json:opts.json ~files_scanned:(List.length files)
    (analyze opts files)
