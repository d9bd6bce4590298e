(* xkscost — hot-path complexity and budget-discipline analysis.

   The ELCA/SLCA drivers are attractive precisely because of their
   complexity guarantees over sorted Dewey postings, and the serving
   layer's per-request deadlines only bound latency if every traversal
   loop actually reaches [Budget.tick].  Both properties are global
   (they hold or break across call chains, not single expressions) and
   both have regressed silently before — the PR 9 predicate-partition
   draft ran 20x slower than full enumeration because of an accidental
   quadratic list idiom in the scan path, and an unticked drain loop is
   invisible to the fault suite unless an injection happens to land in
   it.  This tool machine-enforces them with a two-pass whole-program
   scan of the directories on the command line (normally [lib bin]),
   built — like xkslint/xksrace/xksleak — on the compiler's own front
   end ([Parse.implementation] + hand-rolled walks).

   Pass 1 (call graph and hot set, cross-module).  Every [.ml] is
   parsed; every [let]-bound name (any nesting depth) becomes a node
   keyed [Module.name], with edges to every unqualified identifier it
   mentions (resolved within its own module) and every qualified
   [M.f] mention (resolved to the scanned file [m.ml]).  Mentions, not
   just call heads, so higher-order passing ([Array.iter process s1])
   keeps [process] reachable.  Three fixpoints run over this graph:

     hot      reachable from the entry points whose complexity is the
              paper's contract — [Engine.search]/[search_result],
              [Inverted.posting], every top-level binding of a file
              under a [lca] directory, plus anything annotated
              [(* xkscost: hot *)].
     ticking  reaches a budget charge: [Budget.tick]/[tick_opt]/[check]
              (through any alias chain ending in a [Budget] qualifier),
              directly or through a callee.
     vocab    mentions index data by name — an identifier or record
              field whose name contains one of the traversal stems
              [posting]/[stack]/[fragment]/[knode] — directly or
              through a same-module callee.

   Pass 2 (enforcement, per file, hot code only).  A {e loop} is a
   [while]/[for] body, the callback of a [List]/[Array]/[Hashtbl]/
   [Tree] iteration ([iter]/[map]/[fold]/[sort]/...), or the body of a
   self-recursive binding.  Two rule families:

   Complexity — inside hot loop bodies and the same-file functions they
   (transitively) mention:

   C1 [list-append]      [@] / [List.append] / [List.concat] /
                         [List.flatten]: the left operand is copied on
                         every iteration, turning a linear scan
                         quadratic (the PR 9 regression class).
   C2 [membership-scan]  [List.mem]/[assoc]/[nth] (and [..._opt]/[memq]
                         variants), and the predicate scans
                         [List.exists]/[for_all]/[find]/[find_opt]/
                         [find_map]: a linear scan per iteration where
                         the scan path promises one pass over sorted
                         postings (a [List.exists] dedup over an
                         accumulated list made rule 2(b) quadratic).
   C3 [hashtbl-fold]     [Hashtbl.fold] under iteration: rebuilds an
                         accumulator over the whole table per step.
   C4 [loop-alloc]       closure or tuple allocated per iteration of a
                         loop annotated [(* xkscost: tight *)] — minor-
                         GC churn is a stop-the-world barrier multiplier
                         under domains, so the tightest loops opt into
                         allocation-freedom checking.

   Budget discipline:

   B1 [unticked-loop]    a hot loop whose region (the loop expression
                         plus its same-module callees' vocabulary)
                         touches index data but reaches no
                         [Budget.tick]/[check] on any path of the call
                         graph: a request deadline cannot interrupt it.
                         Loops that compute the argument {e of} a tick
                         call are exempt by construction.

   Annotation grammar (comment on the flagged line or the line above):

     (* xkscost: hot *)                     binding: extra hot root
     (* xkscost: tight *)                   loop: enable C4 here
     (* xkscost: allow <rule> <reason> *)   suppress <rule> findings on
                                            this line
     (* xkscost: unticked <reason> *)       loop: B1 exemption with its
                                            safety argument (typically:
                                            pre-charged, k-bounded, or
                                            oracle-only path)

   Known approximations, by design (this is a linter, not a verifier):
   names are resolved per module, not per scope, so shadowing
   over-approximates; reachability ignores dead branches; the
   traversal vocabulary is nominal — a posting array renamed [xs]
   escapes B1, and a [stack] of something else is conservatively
   in.  The loader, annotation lexer (the verb table below), names
   and fixpoint are the shared [Xks_report.Program]; output, [--json],
   [--rules] staging and the 0/1/2 exit contract are
   [Xks_report.Report]. *)

open Xks_report.Program
module Report = Xks_report.Report

let tool = "xkscost"

let all_rules =
  [ "list-append"; "membership-scan"; "hashtbl-fold"; "loop-alloc";
    "unticked-loop" ]

(* Traversal vocabulary: names that identify index data on the scan
   path.  Substring match, lowercased, so [postings], [stack_top] and
   [knodes_of] all count. *)
let vocab_stems = [ "posting"; "stack"; "fragment"; "knode" ]

(* Entry points that are hot without annotation: the budgeted search
   API, the posting fetch, and (seeded by path, below) every lib/lca
   driver. *)
let default_roots =
  [ ("Engine", "search"); ("Engine", "search_result");
    ("Inverted", "posting") ]

let budget_fns = [ "tick"; "tick_opt"; "check" ]

(* Iteration combinators whose callback body is a loop body. *)
let iterator_fns =
  [ ("List",
     [ "iter"; "iteri"; "map"; "mapi"; "rev_map"; "map2"; "iter2";
       "fold_left"; "fold_right"; "fold_left2"; "filter"; "filteri";
       "filter_map"; "concat_map"; "partition"; "for_all"; "exists";
       "find"; "find_opt"; "find_map"; "sort"; "sort_uniq"; "stable_sort" ]);
    ("Array",
     [ "iter"; "iteri"; "map"; "mapi"; "map2"; "iter2"; "fold_left";
       "fold_right"; "for_all"; "exists"; "sort"; "stable_sort" ]);
    ("Hashtbl", [ "iter"; "fold"; "filter_map_inplace" ]);
    ("Tree", [ "iter"; "fold" ]) ]

let is_iterator m f =
  match List.assoc_opt m iterator_fns with
  | Some fns -> List.mem f fns
  | None -> false

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)

type ann =
  | Hot
  | Tight
  | Allow of string  (* rule id; the reason is for the human reader *)
  | Unticked

let verbs =
  [ ("hot", Bare, fun _ -> Some Hot);
    ("tight", Bare, fun _ -> Some Tight);
    (* the reason is the point of the escape hatch: it is required *)
    ("allow", Word_reason,
     fun r -> if List.mem r all_rules then Some (Allow r) else None);
    ("unticked", Word, fun _ -> Some Unticked) ]

let has_ann anns line p = List.exists p (anns_at anns line)

let under_lca_dir path =
  List.exists (String.equal "lca") (String.split_on_char '/' path)

(* ------------------------------------------------------------------ *)
(* Mentions: the raw material of every graph edge                     *)

type mentions = {
  m_unqual : StringSet.t;  (* bare identifiers *)
  m_qual : (string * string) list;  (* (last module component, name) *)
  m_names : StringSet.t;  (* identifiers + record-field accesses: vocab *)
}

let mentions_of expr =
  let unqual = ref StringSet.empty in
  let qual = ref [] in
  let names = ref StringSet.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } ->
              unqual := StringSet.add x !unqual;
              names := StringSet.add x !names
          | Pexp_ident { txt; _ } -> (
              match qualifier txt with
              | Some q -> qual := (q, last_of txt) :: !qual
              | None -> ())
          | Pexp_field (_, { txt; _ }) | Pexp_setfield (_, { txt; _ }, _) ->
              names := StringSet.add (last_of txt) !names
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  { m_unqual = !unqual; m_qual = !qual; m_names = !names }

let stems_in names =
  List.filter
    (fun stem ->
      StringSet.exists
        (fun n ->
          let n = String.lowercase_ascii n in
          let sl = String.length stem and nl = String.length n in
          let rec find i = i + sl <= nl && (String.equal (String.sub n i sl) stem || find (i + 1)) in
          find 0)
        names)
    vocab_stems

(* ------------------------------------------------------------------ *)
(* Pass 1: nodes of the call graph                                    *)

type node = {
  nd_module : string;
  nd_name : string;
  nd_file : string;
  nd_line : int;
  nd_toplevel : bool;
  nd_hot_ann : bool;
  nd_body : Parsetree.expression;
  nd_mentions : mentions;
}

let key_of m f = m ^ "." ^ f
let nd_key n = key_of n.nd_module n.nd_name

let nodes_of_file fi =
  let out = ref [] in
  let add ~toplevel (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
        out :=
          {
            nd_module = fi.modname;
            nd_name = txt;
            nd_file = fi.path;
            nd_line = line_of vb.pvb_loc;
            nd_toplevel = toplevel;
            nd_hot_ann =
              has_ann fi.anns (line_of vb.pvb_loc) (function
                | Hot -> true
                | _ -> false);
            nd_body = vb.pvb_expr;
            nd_mentions = mentions_of vb.pvb_expr;
          }
          :: !out
    | _ -> ()
  in
  let nested =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          add ~toplevel:false vb;
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  iter_items
    (function
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              add ~toplevel:true vb;
              nested.expr nested vb.pvb_expr)
            vbs
      | Pstr_eval (e, _) -> nested.expr nested e
      | _ -> ())
    fi.structure;
  !out

(* ------------------------------------------------------------------ *)
(* Fixpoints over the node graph                                      *)

type graph = {
  by_key : (string, node list) Hashtbl.t;
  by_site : (string * string * int, node) Hashtbl.t;  (* file, name, line *)
  hot : (string, unit) Hashtbl.t;
  ticking : (string, unit) Hashtbl.t;
  vocab : (string, StringSet.t) Hashtbl.t;  (* key -> matched stems *)
}

(* Keys a node's mentions resolve to: unqualified names within its own
   module, qualified names to any scanned module of that name. *)
let edges g (n : node) =
  let from_unqual =
    StringSet.fold
      (fun u acc ->
        let k = key_of n.nd_module u in
        if Hashtbl.mem g.by_key k then k :: acc else acc)
      n.nd_mentions.m_unqual []
  in
  let from_qual =
    List.filter_map
      (fun (m, f) ->
        let k = key_of m f in
        if Hashtbl.mem g.by_key k then Some k else None)
      n.nd_mentions.m_qual
  in
  from_unqual @ from_qual

(* Ticking keys a node mentions — unlike [edges] this includes the
   virtual [Budget.*] primitives, which need no scanned definition. *)
let mentions_ticking g (m : mentions) ~in_module =
  List.exists
    (fun (q, f) -> Hashtbl.mem g.ticking (key_of q f))
    m.m_qual
  || StringSet.exists
       (fun u -> Hashtbl.mem g.ticking (key_of in_module u))
       m.m_unqual

let vocab_of g k =
  Option.value (Hashtbl.find_opt g.vocab k) ~default:StringSet.empty

(* [base] plus the stems of every same-module callee [m] mentions. *)
let region_vocab g ~in_module (m : mentions) base =
  StringSet.fold
    (fun u acc -> StringSet.union acc (vocab_of g (key_of in_module u)))
    m.m_unqual base

let build_graph infos =
  let nodes = List.concat_map nodes_of_file infos in
  let g =
    {
      by_key = Hashtbl.create 512;
      by_site = Hashtbl.create 512;
      hot = Hashtbl.create 256;
      ticking = Hashtbl.create 64;
      vocab = Hashtbl.create 256;
    }
  in
  List.iter
    (fun n ->
      let k = nd_key n in
      let prev = Option.value (Hashtbl.find_opt g.by_key k) ~default:[] in
      Hashtbl.replace g.by_key k (n :: prev);
      Hashtbl.replace g.by_site (n.nd_file, n.nd_name, n.nd_line) n)
    nodes;
  (* [add set k] is whether [k] was new to [set]. *)
  let add set k =
    let fresh = not (Hashtbl.mem set k) in
    if fresh then Hashtbl.replace set k ();
    fresh
  in
  (* Hot set: seeds, then forward reachability along mention edges. *)
  List.iter
    (fun (m, f) ->
      let k = key_of m f in
      if Hashtbl.mem g.by_key k then ignore (add g.hot k))
    default_roots;
  List.iter
    (fun n ->
      if n.nd_hot_ann || (n.nd_toplevel && under_lca_dir n.nd_file) then
        ignore (add g.hot (nd_key n)))
    nodes;
  fixpoint
    (fun n ->
      Hashtbl.mem g.hot (nd_key n)
      && List.fold_left (fun grew k -> add g.hot k || grew) false (edges g n))
    nodes;
  (* Ticking set: the Budget primitives, then backward closure — a node
     ticks if it mentions a ticking key. *)
  List.iter (fun f -> Hashtbl.replace g.ticking (key_of "Budget" f) ()) budget_fns;
  fixpoint
    (fun n ->
      mentions_ticking g n.nd_mentions ~in_module:n.nd_module
      && add g.ticking (nd_key n))
    nodes;
  (* Vocabulary set: which traversal stems a node's region mentions,
     closed over same-module callees. *)
  List.iter
    (fun n ->
      let k = nd_key n in
      Hashtbl.replace g.vocab k
        (StringSet.union (vocab_of g k)
           (StringSet.of_list (stems_in n.nd_mentions.m_names))))
    nodes;
  fixpoint
    (fun n ->
      let k = nd_key n in
      let mine = vocab_of g k in
      let grown = region_vocab g ~in_module:n.nd_module n.nd_mentions mine in
      let changed = not (StringSet.equal grown mine) in
      if changed then Hashtbl.replace g.vocab k grown;
      changed)
    nodes;
  g

(* ------------------------------------------------------------------ *)
(* Pass 2: loops and idioms                                           *)

type loop = {
  l_loc : Location.t;
  l_all : Parsetree.expression;  (* the whole loop expression *)
  l_bodies : Parsetree.expression list;  (* literal per-iteration bodies *)
  l_in_tick_arg : bool;  (* computes the argument of a Budget charge *)
  l_what : string;  (* "while loop", "List.iter body", ... *)
}

let rec callback_body (e : Parsetree.expression) acc =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) ->
      (* Innermost body of the literal callback. *)
      let rec innermost (b : Parsetree.expression) =
        match b.pexp_desc with
        | Pexp_fun (_, _, _, b) -> innermost b
        | Pexp_newtype (_, b) -> innermost b
        | _ -> b
      in
      innermost body :: acc
  | Pexp_function cases ->
      List.fold_left
        (fun acc (c : Parsetree.case) -> c.pc_rhs :: acc)
        acc cases
  | Pexp_newtype (_, b) -> callback_body b acc
  | _ -> acc

type env = { in_hot : bool; in_tick_arg : bool }

let collect_loops g fi =
  let loops = ref [] in
  let add env ?(what = "loop") loc all bodies =
    if env.in_hot then
      loops :=
        {
          l_loc = loc;
          l_all = all;
          l_bodies = bodies;
          l_in_tick_arg = env.in_tick_arg;
          l_what = what;
        }
        :: !loops
  in
  let rec walk env (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_while (_, body) ->
        add env ~what:"while loop" e.pexp_loc e [ body ];
        walk_children env e
    | Pexp_for (_, _, _, _, body) ->
        add env ~what:"for loop" e.pexp_loc e [ body ];
        walk_children env e
    | Pexp_let (_, vbs, body) ->
        List.iter (walk_vb env) vbs;
        walk env body
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let q = qualifier txt and f = last_of txt in
        let plain = List.map snd args in
        (match q with
        | Some m when is_iterator m f ->
            add env
              ~what:(Printf.sprintf "%s.%s body" m f)
              e.pexp_loc e
              (List.fold_left
                 (fun acc a -> callback_body a acc)
                 [] plain)
        | _ -> ());
        let env' =
          match q with
          | Some "Budget" when List.mem f budget_fns ->
              { env with in_tick_arg = true }
          | _ -> env
        in
        List.iter (walk env') plain
    | _ -> walk_children env e
  and walk_children env e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> walk env child);
      }
    in
    Ast_iterator.default_iterator.expr it e
  and walk_vb env (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
        let key = key_of fi.modname txt in
        let env' = { env with in_hot = env.in_hot || Hashtbl.mem g.hot key } in
        (match
           Hashtbl.find_opt g.by_site (fi.path, txt, line_of vb.pvb_loc)
         with
        | Some n when StringSet.mem txt n.nd_mentions.m_unqual ->
            (* Self-recursive: the whole body iterates. *)
            add env'
              ~what:(Printf.sprintf "recursive function '%s'" txt)
              vb.pvb_loc vb.pvb_expr [ vb.pvb_expr ]
        | Some _ | None -> ());
        walk env' vb.pvb_expr
    | _ -> walk env vb.pvb_expr
  in
  let top = { in_hot = false; in_tick_arg = false } in
  iter_items
    (function
      | Pstr_value (_, vbs) -> List.iter (walk_vb top) vbs
      | Pstr_eval (e, _) -> walk top e
      | _ -> ())
    fi.structure;
  !loops

(* The complexity idioms, matched at application heads. *)
let idiom_of q f =
  match (q, f) with
  | None, "@" ->
      Some
        ( "list-append",
          "'@' copies its whole left operand — inside a hot loop this is \
           O(n^2) accumulation (the PR 9 regression class); build with \
           cons / a scratch Int_vec and finish once, or justify with (* \
           xkscost: allow list-append <reason> *)" )
  | Some "List", ("append" | "concat" | "flatten") ->
      Some
        ( "list-append",
          Printf.sprintf
            "List.%s copies entire lists — inside a hot loop this is \
             O(n^2) accumulation; build with cons / a scratch Int_vec and \
             finish once, or justify with (* xkscost: allow list-append \
             <reason> *)"
            f )
  | ( Some "List",
      ( "mem" | "memq" | "mem_assoc" | "mem_assq" | "assoc" | "assq"
      | "assoc_opt" | "assq_opt" | "nth" | "nth_opt" ) ) ->
      Some
        ( "membership-scan",
          Printf.sprintf
            "List.%s scans linearly per call — inside a hot loop this is \
             quadratic membership; use a Hashtbl, a sorted array with \
             Bsearch, or justify with (* xkscost: allow membership-scan \
             <reason> *)"
            f )
  | Some "List", ("exists" | "for_all" | "find" | "find_opt" | "find_map")
    ->
      Some
        ( "membership-scan",
          Printf.sprintf
            "List.%s runs its predicate over the list per call — inside a \
             hot loop, over a list that grows with the input, this is a \
             quadratic scan (the rule-2b dedup regression class); key a \
             Hashtbl on what the predicate compares, or justify with (* \
             xkscost: allow membership-scan <reason> *)"
            f )
  | Some "Hashtbl", "fold" ->
      Some
        ( "hashtbl-fold",
          "Hashtbl.fold under iteration walks the whole table per step; \
           hoist the fold out of the loop or justify with (* xkscost: \
           allow hashtbl-fold <reason> *)" )
  | _ -> None

let scan_idioms ~emit expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) -> (
              match idiom_of (qualifier txt) (last_of txt) with
              | Some (rule, msg) -> emit loc rule msg
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

(* Per-iteration allocations inside a [tight]-annotated loop body. *)
let scan_allocs ~emit expr =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_fun _ | Pexp_function _ ->
              emit e.Parsetree.pexp_loc "loop-alloc"
                "closure allocated on every iteration of a tight loop; \
                 hoist it out of the loop or drop the (* xkscost: tight *) \
                 annotation"
          | Pexp_tuple _ ->
              emit e.Parsetree.pexp_loc "loop-alloc"
                "tuple allocated on every iteration of a tight loop; carry \
                 the components in separate mutable slots or drop the (* \
                 xkscost: tight *) annotation"
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr

let check_file g opts fi =
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let emit (loc : Location.t) rule msg =
    let line = line_of loc in
    let cstart, cend = cols_of loc in
    let allowed =
      has_ann fi.anns line (function
        | Allow r -> String.equal r rule
        | _ -> false)
    in
    let key = (line, cstart, rule) in
    if Report.rule_enabled opts rule && (not allowed) && not (Hashtbl.mem seen key)
    then begin
      Hashtbl.add seen key ();
      findings :=
        { Report.file = fi.path; line; cstart; cend; rule; msg } :: !findings
    end
  in
  let loops = collect_loops g fi in
  (* Same-file loop-context closure: functions a hot loop mentions are
     part of its per-iteration work, so their bodies carry the loop's
     complexity contract too. *)
  let lc : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec mark_lc name =
    let k = key_of fi.modname name in
    if Hashtbl.mem g.hot k && not (Hashtbl.mem lc k) then begin
      Hashtbl.replace lc k ();
      List.iter
        (fun n ->
          if String.equal n.nd_file fi.path then
            StringSet.iter mark_lc n.nd_mentions.m_unqual)
        (match Hashtbl.find_opt g.by_key k with Some l -> l | None -> [])
    end
  in
  List.iter
    (fun l ->
      let m = mentions_of l.l_all in
      StringSet.iter mark_lc m.m_unqual)
    loops;
  (* Complexity rules over loop bodies... *)
  List.iter (fun l -> List.iter (scan_idioms ~emit) l.l_bodies) loops;
  (* ...and over the bodies of same-file functions those loops call. *)
  Hashtbl.iter
    (fun k () ->
      List.iter
        (fun n ->
          if String.equal n.nd_file fi.path then scan_idioms ~emit n.nd_body)
        (match Hashtbl.find_opt g.by_key k with Some l -> l | None -> []))
    lc;
  (* Tight loops: per-iteration allocation checks are opt-in. *)
  List.iter
    (fun l ->
      let tight =
        has_ann fi.anns (line_of l.l_loc) (function
          | Tight -> true
          | _ -> false)
      in
      if tight then List.iter (scan_allocs ~emit) l.l_bodies)
    loops;
  (* Budget discipline: every hot traversal loop must reach a tick. *)
  List.iter
    (fun l ->
      if not l.l_in_tick_arg then begin
        let m = mentions_of l.l_all in
        let stems =
          region_vocab g ~in_module:fi.modname m
            (StringSet.of_list (stems_in m.m_names))
        in
        let exempt =
          has_ann fi.anns (line_of l.l_loc) (function
            | Unticked -> true
            | _ -> false)
        in
        if (not (StringSet.is_empty stems)) && not exempt then
          if not (mentions_ticking g m ~in_module:fi.modname) then
            emit l.l_loc "unticked-loop"
              (Printf.sprintf
                 "hot %s traverses index data (%s) but reaches no \
                  Budget.tick/Budget.check on any call path — a request \
                  deadline cannot interrupt it; tick per element or \
                  annotate (* xkscost: unticked <reason> *)"
                 l.l_what
                 (String.concat ", " (StringSet.elements stems)))
      end)
    loops;
  !findings

(* ------------------------------------------------------------------ *)
(* Driver (loader, output and exit contract live in Xks_report)       *)

let () =
  run ~tool ~known_rules:all_rules ~verbs (fun opts infos ->
      let g = build_graph infos in
      List.concat_map (check_file g opts) infos)
