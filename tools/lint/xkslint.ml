(* xkslint — repo-local static analysis for the xks sources.

   A dependency-free lint pass built on the compiler's own front end
   ([Parse.implementation] + [Ast_iterator]): it re-parses every [.ml]
   under the directories given on the command line and enforces the
   repo rules documented in DESIGN.md ("Static analysis & invariants"):

   R1 [poly-compare]   In modules that define a dedicated comparator
                       (dewey.ml, label.ml, cid.ml, value.ml), the
                       polymorphic primitives are banned: [compare],
                       [==]/[!=], [min]/[max] always (unless the module
                       shadows them), and [=] [<>] [<] [>] [<=] [>=]
                       whenever neither operand is a literal constant.
                       Comparing against a literal ([c <> 0], [n = 0])
                       pins the type to an immediate and stays legal;
                       comparing two computed values is where the
                       polymorphic order silently diverges from the
                       dedicated one (e.g. on [Dewey.t] it is
                       length-major, not document order).
   R2 [partial-call]   No partial stdlib calls ([List.hd], [List.tl],
                       [List.nth], [Option.get], [Hashtbl.find])
                       outside test code: a violated invariant must
                       fail with a descriptive exception, not a bare
                       [Failure "hd"].
   R3 [catch-all]      No [try ... with _ ->]: a wildcard handler
                       swallows [Out_of_memory] and [Stack_overflow].
   R4 [stdout-print]   No [print_*]/[Printf.printf]/[Format.printf]
                       from library code — stdout is the CLI's result
                       channel.
   R5 [missing-mli]    Every library module needs an interface file.
   R6 [module-state]   No mutable state created at module level in
                       library code ([ref]/[Hashtbl.create]/
                       [Atomic.make]/[Queue.create]/[Buffer.create]
                       outside any function): module-level state is
                       process-global, breaks reentrancy and is the
                       enemy of the multi-domain batch executor.  State
                       created inside a function body is per-call and
                       fine.  A small allowlist covers the deliberate
                       cases (failpoint registry, trace slot).

   Findings print in the compiler's own location format —

     File "lib/xml/dewey.ml", line 12, characters 10-17:
     [poly-compare] message

   — so editors and CI annotators that already parse ocaml diagnostics
   pick them up unchanged ([missing-mli], which has no source span,
   anchors to line 1, characters 0-0).  Output, the [--json] schema
   ({tool, files_scanned, findings: [{file, line, cstart, cend, rule,
   message}]}) and the exit contract (0 clean, 1 findings, 2 usage or
   parse errors) are [Xks_report.Report], one contract for all four
   analyzers; the loader and annotation lexer are [Xks_report.Program].
   A finding is suppressed by the comment [(* xkslint: allow <rule> *)]
   on the same line or the line directly above; an unknown rule id
   there is rejected (exit 2). *)

open Xks_report.Program
module Report = Xks_report.Report

let tool = "xkslint"

type rule =
  | Poly_compare
  | Partial_call
  | Catch_all
  | Stdout_print
  | Missing_mli
  | Module_state

let rule_id = function
  | Poly_compare -> "poly-compare"
  | Partial_call -> "partial-call"
  | Catch_all -> "catch-all"
  | Stdout_print -> "stdout-print"
  | Missing_mli -> "missing-mli"
  | Module_state -> "module-state"

(* The one annotation: [(* xkslint: allow <rule> [reason] *)]
   suppresses <rule> findings on its line and the line below; an
   unknown rule id is rejected like an unknown verb. *)
let verbs =
  let ids =
    List.map rule_id
      [ Poly_compare; Partial_call; Catch_all; Stdout_print; Missing_mli;
        Module_state ]
  in
  [ ("allow", Word, fun r -> if List.mem r ids then Some r else None) ]

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)

(* Modules with a dedicated comparator (R1 applies inside them). *)
let comparator_modules = [ "dewey.ml"; "label.ml"; "cid.ml"; "value.ml" ]

(* (module, function) pairs banned by R2. *)
let partial_calls =
  [
    ("List", "hd");
    ("List", "tl");
    ("List", "nth");
    ("Option", "get");
    ("Hashtbl", "find");
  ]

(* Bare identifiers banned by R4 in library code. *)
let stdout_idents =
  [
    "print_string";
    "print_bytes";
    "print_int";
    "print_char";
    "print_float";
    "print_endline";
    "print_newline";
  ]

(* Qualified identifiers banned by R4 in library code. *)
let stdout_qualified =
  [
    ("Printf", "printf");
    ("Format", "printf");
    ("Format", "print_string");
    ("Format", "print_newline");
    ("Format", "print_flush");
  ]

(* Library files whose module-level state is deliberate (R6): the
   failpoint registry is the fault-injection control surface and the
   trace module owns the global current-trace slot.  Everything else
   needs an inline [(* xkslint: allow module-state *)] with a safety
   argument next to the definition. *)
let module_state_allowlist = [ "failpoint.ml"; "trace.ml" ]

(* (module, function) constructors of mutable state flagged by R6 when
   called at module level. *)
let state_constructors =
  [
    ("Hashtbl", "create");
    ("Atomic", "make");
    ("Queue", "create");
    ("Buffer", "create");
  ]

(* Identifiers banned unconditionally by R1 (unless shadowed). *)
let poly_idents = [ "compare"; "min"; "max"; "==" ; "!=" ]

(* Operators banned by R1 when neither operand is a literal. *)
let poly_relational = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* ------------------------------------------------------------------ *)
(* File classification                                                *)

type area = Lib | Bin | Bench | Test | Other_area

let area_of_path path =
  let segs = String.split_on_char '/' path in
  let has s = List.exists (String.equal s) segs in
  let test_seg s = String.length s >= 4 && String.equal (String.sub s 0 4) "test" in
  if List.exists test_seg segs then Test
  else if has "lib" then Lib
  else if has "bin" then Bin
  else if has "bench" then Bench
  else Other_area

(* ------------------------------------------------------------------ *)
(* Per-file AST checks                                                *)

(* Names let-bound anywhere in the file: a module that defines its own
   [compare]/[min]/[max] may use them bare. *)
let bound_names structure =
  let names = ref StringSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { txt; _ } -> names := StringSet.add txt !names
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.structure it structure;
  !names

let is_literal (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_construct (_, None) -> true (* [], None, true, () … *)
  | Pexp_variant (_, None) -> true
  | _ -> false

let rec pattern_is_catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (q, _) -> pattern_is_catch_all q
  | Ppat_or (a, b) -> pattern_is_catch_all a || pattern_is_catch_all b
  | _ -> false

let check_file fi =
  let path = fi.path in
  let findings = ref [] in
  let area = area_of_path path in
  let emit ~line ~cols:(cstart, cend) rule msg =
    if not (List.mem (rule_id rule) (anns_at fi.anns line)) then
      findings :=
        { Report.file = path; line; cstart; cend; rule = rule_id rule; msg }
        :: !findings
  in
  let emit_at loc rule msg =
    emit ~line:(line_of loc) ~cols:(cols_of loc) rule msg
  in
  (* R5: library modules need an interface.  No source span to point
     at, so the finding anchors to the top of the file. *)
  (match area with
  | Lib ->
      if not (Sys.file_exists (path ^ "i")) then
        emit ~line:1 ~cols:(0, 0) Missing_mli
          (Printf.sprintf "library module %s has no interface file (%si)"
             (Filename.basename path)
             (Filename.basename path))
  | Bin | Bench | Test | Other_area -> ());
  let structure = fi.structure in
  (* R6: mutable state created at module level in library code.  A
     dedicated iterator that never descends into function bodies —
     state allocated per call is fine; state allocated when the module
     initialises is process-global. *)
  (if
     (match area with Lib -> true | Bin | Bench | Test | Other_area -> false)
     && not
          (List.exists
             (String.equal (Filename.basename path))
             module_state_allowlist)
   then
     let emit_state loc what =
       emit_at loc Module_state
         (Printf.sprintf
            "mutable state ('%s') created at module level in library code \
             (process-global, hostile to multi-domain execution); allocate \
             it inside the function or record that owns it"
            what)
     in
     let state_hook it (e : Parsetree.expression) =
       match e.pexp_desc with
       | Pexp_fun _ | Pexp_function _ -> ()
       | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) ->
           (match txt with
           | Lident "ref" -> emit_state loc "ref"
           | Ldot (Lident m, f)
             when List.exists
                    (fun (bm, bf) -> String.equal m bm && String.equal f bf)
                    state_constructors ->
               emit_state loc (m ^ "." ^ f)
           | _ -> ());
           Ast_iterator.default_iterator.expr it e
       | _ -> Ast_iterator.default_iterator.expr it e
     in
     let state_it = { Ast_iterator.default_iterator with expr = state_hook } in
     state_it.structure state_it structure);
  let comparator_module =
    List.exists (String.equal (Filename.basename path)) comparator_modules
  in
  let shadowed = if comparator_module then bound_names structure else StringSet.empty in
  let check_ident loc (id : Longident.t) =
    match id with
    | Lident name ->
        if
          comparator_module
          && List.exists (String.equal name) poly_idents
          && not (StringSet.mem name shadowed)
        then
          emit_at loc Poly_compare
            (Printf.sprintf
               "polymorphic '%s' in a module with a dedicated comparator; \
                use Int/String/%s functions instead"
               name
               (String.capitalize_ascii
                  (Filename.remove_extension (Filename.basename path))));
        if
          (match area with Lib -> true | Bin | Bench | Test | Other_area -> false)
          && List.exists (String.equal name) stdout_idents
        then
          emit_at loc Stdout_print
            (Printf.sprintf
               "'%s' writes to stdout from library code (stdout is the \
                CLI's result channel); return data or use Format on an \
                explicit formatter"
               name)
    | Ldot (Lident m, f) ->
        if
          (match area with Test -> false | Lib | Bin | Bench | Other_area -> true)
          && List.exists
               (fun (bm, bf) -> String.equal m bm && String.equal f bf)
               partial_calls
        then
          emit_at loc Partial_call
            (Printf.sprintf
               "partial '%s.%s' outside test code; match explicitly or use \
                a total alternative (%s) so a broken invariant fails with \
                a descriptive exception"
               m f
               (match f with
               | "hd" | "tl" -> "a pattern match on the list"
               | "nth" -> "List.nth_opt"
               | "get" -> "Option.value or a pattern match"
               | "find" -> "Hashtbl.find_opt"
               | _ -> "an _opt variant"));
        if
          (match area with Lib -> true | Bin | Bench | Test | Other_area -> false)
          && List.exists
               (fun (bm, bf) -> String.equal m bm && String.equal f bf)
               stdout_qualified
        then
          emit_at loc Stdout_print
            (Printf.sprintf
               "'%s.%s' writes to stdout from library code (stdout is the \
                CLI's result channel)"
               m f)
    | Ldot _ | Lapply _ -> ()
  in
  let expr_hook it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_try (_, cases) ->
        List.iter
          (fun (c : Parsetree.case) ->
            if pattern_is_catch_all c.pc_lhs then
              emit_at c.pc_lhs.ppat_loc Catch_all
                "catch-all exception handler ('with _ ->') swallows \
                 Out_of_memory and Stack_overflow; match the specific \
                 exceptions instead")
          cases
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt = Lident op; loc }; _ }, args)
      when comparator_module
           && List.exists (String.equal op) poly_relational
           && not (StringSet.mem op shadowed) -> (
        match args with
        | (_, a) :: (_, b) :: _ ->
            if not (is_literal a || is_literal b) then
              emit_at loc Poly_compare
                (Printf.sprintf
                   "polymorphic '%s' on two computed operands in a module \
                    with a dedicated comparator; use Int.equal/Int.compare \
                    (comparing against a literal is fine)"
                   op)
        | _ -> ())
    | Pexp_ident { txt; loc } -> check_ident loc txt
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr = expr_hook } in
  it.structure it structure;
  !findings

(* ------------------------------------------------------------------ *)
(* Driver (loader, output and exit contract live in Xks_report)       *)

let () = run ~tool ~verbs (fun _ files -> List.concat_map check_file files)
