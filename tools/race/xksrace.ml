(* xksrace — cross-module domain-safety and lock-discipline analysis.

   The multicore exec layer (lib/exec) shares mutable state across
   [Domain.spawn] boundaries; xkslint's module-state rule only flags
   module-level mutable *creation*, not unsynchronized *sharing*.  This
   tool closes the gap with a two-pass whole-program scan of the
   directories given on the command line (normally just [lib]), built —
   like xkslint — on the compiler's own front end
   ([Parse.implementation] + a hand-rolled environment-carrying walk).

   Pass 1 (inventory, cross-module).  Every [.ml] is parsed and its
   mutable surface recorded: [mutable] record fields, fields of
   container type ([Hashtbl.t]/[Queue.t]/[Buffer.t]/[Stack.t]), fields
   whose type references another scanned module whose own type is
   unsafe (computed as a fixpoint, so [Inverted.t] ∋ [Int_vec.t] ∋
   [mutable data] propagates), and module-level [ref]/container
   bindings.  [Atomic.t]/[Mutex.t]/[Condition.t]/[Semaphore] values are
   synchronization primitives and always safe.  OCaml arrays are *not*
   inventoried: the repo convention (pinned by the sharing audits in
   test/) is that arrays are frozen post-build or striped over disjoint
   slots, and flagging every [int array] would drown the signal.

   Pass 2 (enforcement, per file, with a held-lock environment):

   E1 [unguarded-escape]  A mutable value created *outside* a
                          domain-crossing closure but read or written
                          *inside* one ([Domain.spawn] / [Pool.submit] /
                          [Pool.run_all] arguments, propagated through
                          same-file [let] bindings) with no annotation.
   E2 [unlocked-access]   A read/write of a [guarded_by]-annotated field
                          or binding while the named mutex is not
                          syntactically held.
   E3 [requires-lock]     A call to a [requires_lock]-annotated helper
                          while the named mutex is not held.
   E4 [frozen-mutable]    A mutable/container/unsafe-typed field (or
                          module-level mutable binding) declared in a
                          frozen-builder module ([inverted.ml],
                          [engine.ml]) with no annotation: values of
                          these modules are shared read-only across
                          every pool worker, so each mutable member
                          must carry its safety argument.

   A mutex is "held" inside the callback of [Mutex.protect m f], inside
   any function-literal argument of a call to a [locks]-annotated
   helper, inside the body of a [requires_lock]-annotated function, and
   in the statements of a sequence after [Mutex.lock m] (until
   [Mutex.unlock m]).  Mutexes are named by the last component of their
   access path ([s.mutex] and [p.mutex] are both "mutex").

   Annotation grammar (comment on the declaration line or the line
   directly above; for suppression, on the access line or above):

     (* xksrace: guarded_by <mutex-name> *)     field/binding: every
                                                access must hold <mutex>
     (* xksrace: domain_safe <reason> *)        field/binding: safe by
                                                argument; on a use line:
                                                suppress findings there
     (* xksrace: requires_lock <mutex-name> *)  function: body assumes
                                                the lock; callers must
                                                hold it
     (* xksrace: locks <mutex-name> *)          function: runs its
                                                function arguments with
                                                the lock held

   E5 [raise-under-lock]  A call to [Failpoint.apply] /
                          [Failpoint.read_file] / [Failpoint.trigger]
                          while a mutex is held via *bare*
                          [Mutex.lock] sequencing.  Failpoint sites
                          raise by injection (the fault suites arm
                          them with [Raise]), so the unlock after the
                          call is unreachable on the injected path and
                          the lock leaks — the raise inventory here
                          matches xksleak's may-raise fixpoint, which
                          treats failpoint sites as raising.  Inside
                          [Mutex.protect] or a [locks]-annotated
                          wrapper the release is exception-safe and no
                          finding is emitted.

   Known approximations, by design (this is a linter, not a verifier):
   locks are matched by name, not aliasing; cross-module call
   propagation into domain closures stops at module boundaries; arrays
   are exempt; a closure built under a lock is assumed not to outlive
   it.  The loader, annotation lexer, names and fixpoint are the shared
   [Xks_report.Program]; output, the [--json] schema and the 0/1/2 exit
   contract are [Xks_report.Report]. *)

open Xks_report.Program
module Report = Xks_report.Report

let tool = "xksrace"

type kind =
  | Unguarded_escape
  | Unlocked_access
  | Requires_lock
  | Frozen_mutable
  | Raise_under_lock

let kind_id = function
  | Unguarded_escape -> "unguarded-escape"
  | Unlocked_access -> "unlocked-access"
  | Requires_lock -> "requires-lock"
  | Frozen_mutable -> "frozen-mutable"
  | Raise_under_lock -> "raise-under-lock"

(* ------------------------------------------------------------------ *)
(* Configuration                                                      *)

(* Builders of these modules freeze their result before it is shared
   read-only across domains (Inverted.build, the Engine builders): every
   mutable member needs an explicit safety argument (E4). *)
let frozen_modules = [ "inverted.ml"; "engine.ml" ]

(* Type heads that are mutable containers. *)
let container_modules = [ "Hashtbl"; "Queue"; "Buffer"; "Stack" ]

(* Type heads that are synchronization primitives (always safe). *)
let sync_modules = [ "Atomic"; "Mutex"; "Condition"; "Semaphore" ]

(* Module-level constructors of mutable / sync state. *)
let container_ctors =
  [ ("Hashtbl", "create"); ("Queue", "create"); ("Buffer", "create");
    ("Stack", "create") ]

let sync_ctors =
  [ ("Atomic", "make"); ("Mutex", "create"); ("Condition", "create") ]

(* ------------------------------------------------------------------ *)
(* Annotations                                                        *)

type ann =
  | Guarded_by of string
  | Domain_safe
  | Requires of string
  | Locks of string

let verbs =
  [ ("guarded_by", Word, fun m -> Some (Guarded_by m));
    ("domain_safe", Opt_text, fun _ -> Some Domain_safe);
    ("requires_lock", Word, fun m -> Some (Requires m));
    ("locks", Word, fun m -> Some (Locks m)) ]

let binding_ann anns line =
  List.find_map
    (function (Guarded_by _ | Domain_safe) as a -> Some a | _ -> None)
    (anns_at anns line)

let suppressed anns line =
  List.exists (function Domain_safe -> true | _ -> false) (anns_at anns line)

(* ------------------------------------------------------------------ *)
(* Pass 1: inventory                                                  *)

type fld = {
  fl_file : string;
  fl_module : string;  (* declaring module, capitalized *)
  fl_ty : string;  (* declaring type *)
  fl_name : string;
  fl_line : int;
  fl_cstart : int;
  fl_cend : int;
  fl_mutable : bool;
  fl_container : string option;
  fl_refs : (string * string) list;  (* (Module, type) mentioned in the type *)
  fl_ann : ann option;
}

type toplevel = {
  ts_file : string;
  ts_name : string;
  ts_line : int;
  ts_what : string;  (* "ref", "Hashtbl.create", ... *)
  ts_sync : bool;
  ts_ann : ann option;
}

(* Containers and cross-module type references inside one core type.
   Sync heads stop the scan (their contents are managed); container
   heads are recorded and stop it (an annotation is required anyway). *)
let scan_core_type ct =
  let containers = ref [] and refs = ref [] in
  let rec go (ct : Parsetree.core_type) =
    match ct.ptyp_desc with
    | Ptyp_constr (lid, args) -> (
        match qualifier lid.txt with
        | Some m when List.mem m sync_modules -> ()
        | Some m when List.mem m container_modules ->
            containers := m :: !containers
        | Some m ->
            refs := (m, last_of lid.txt) :: !refs;
            List.iter go args
        | None -> List.iter go args)
    | Ptyp_tuple cts -> List.iter go cts
    | Ptyp_alias (ct, _) | Ptyp_poly (_, ct) -> go ct
    | _ -> ()
  in
  go ct;
  (!containers, !refs)

let fields_of_file fi =
  let out = ref [] in
  let add_field ty name (loc : Location.t) is_mutable core_types =
    let containers, refs =
      List.fold_left
        (fun (cs, rs) ct ->
          let c, r = scan_core_type ct in
          (c @ cs, r @ rs))
        ([], []) core_types
    in
    let cstart, cend = cols_of loc in
    out :=
      {
        fl_file = fi.path;
        fl_module = fi.modname;
        fl_ty = ty;
        fl_name = name;
        fl_line = line_of loc;
        fl_cstart = cstart;
        fl_cend = cend;
        fl_mutable = is_mutable;
        fl_container = (match containers with [] -> None | c :: _ -> Some c);
        fl_refs = refs;
        fl_ann = binding_ann fi.anns (line_of loc);
      }
      :: !out
  in
  let type_decl (td : Parsetree.type_declaration) =
    let ty = td.ptype_name.txt in
    (match td.ptype_kind with
    | Ptype_record lds ->
        List.iter
          (fun (ld : Parsetree.label_declaration) ->
            add_field ty ld.pld_name.txt ld.pld_loc
              (match ld.pld_mutable with Mutable -> true | Immutable -> false)
              [ ld.pld_type ])
          lds
    | Ptype_variant cds ->
        List.iter
          (fun (cd : Parsetree.constructor_declaration) ->
            match cd.pcd_args with
            | Pcstr_tuple [] -> ()
            | Pcstr_tuple cts -> add_field ty cd.pcd_name.txt cd.pcd_loc false cts
            | Pcstr_record lds ->
                List.iter
                  (fun (ld : Parsetree.label_declaration) ->
                    add_field ty ld.pld_name.txt ld.pld_loc
                      (match ld.pld_mutable with
                      | Mutable -> true
                      | Immutable -> false)
                      [ ld.pld_type ])
                  lds)
          cds
    | Ptype_abstract | Ptype_open -> ());
    match td.ptype_manifest with
    | Some ct -> add_field ty ty td.ptype_loc false [ ct ]
    | None -> ()
  in
  iter_items
    (function Pstr_type (_, tds) -> List.iter type_decl tds | _ -> ())
    fi.structure;
  !out

let state_ctor_of (e : Parsetree.expression) =
  match (peel e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match txt with
      | Lident "ref" -> Some ("ref", false)
      | Ldot (Lident m, f)
        when List.exists
               (fun (cm, cf) -> String.equal m cm && String.equal f cf)
               container_ctors ->
          Some (m ^ "." ^ f, false)
      | Ldot (Lident m, f)
        when List.exists
               (fun (cm, cf) -> String.equal m cm && String.equal f cf)
               sync_ctors ->
          Some (m ^ "." ^ f, true)
      | _ -> None)
  | _ -> None

let toplevels_of_file fi =
  let out = ref [] in
  let binding (vb : Parsetree.value_binding) =
    match (vb.pvb_pat.ppat_desc, state_ctor_of vb.pvb_expr) with
    | Ppat_var { txt; _ }, Some (what, sync) ->
        out :=
          {
            ts_file = fi.path;
            ts_name = txt;
            ts_line = line_of vb.pvb_loc;
            ts_what = what;
            ts_sync = sync;
            ts_ann = binding_ann fi.anns (line_of vb.pvb_loc);
          }
          :: !out
    | _ -> ()
  in
  iter_items
    (function Pstr_value (_, vbs) -> List.iter binding vbs | _ -> ())
    fi.structure;
  !out

(* Fixpoint: (Module, type) is unsafe when its declaration carries an
   unannotated mutable/container field, or an unannotated field whose
   type mentions an unsafe (Module, type).  Annotations stop
   propagation: a guarded or argued field is managed state. *)
let compute_unsafe fields =
  let unsafe : (string * string, bool) Hashtbl.t = Hashtbl.create 64 in
  let is_unsafe key =
    match Hashtbl.find_opt unsafe key with Some b -> b | None -> false
  in
  let fld_unsafe f =
    f.fl_ann = None
    && (f.fl_mutable
       || f.fl_container <> None
       || List.exists is_unsafe f.fl_refs)
  in
  fixpoint
    (fun f ->
      let key = (f.fl_module, f.fl_ty) in
      let grows = fld_unsafe f && not (is_unsafe key) in
      if grows then Hashtbl.replace unsafe key true;
      grows)
    fields;
  is_unsafe

(* ------------------------------------------------------------------ *)
(* Pass 2: enforcement                                                *)

let mutex_call (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Ldot (Lident "Mutex", f); _ }; _ },
        (_, m) :: _ )
    when String.equal f "lock" || String.equal f "unlock" ->
      Some (f, path_name m)
  | _ -> None

(* Closure arguments of a spawn point, or [None].  [Domain.spawn f]
   runs [f] on a new domain; [Pool.submit]/[Pool.run_all] hand their
   last argument to worker domains (bare [submit]/[run_all] count
   inside the file defining them — the pool implementation itself). *)
let spawn_args ~local_names head (args : (Asttypes.arg_label * _) list) =
  match (head : Parsetree.expression).pexp_desc with
  | Pexp_ident { txt; _ } -> (
      let name = last_of txt in
      let qualified_pool =
        match qualifier txt with Some "Pool" -> true | Some _ -> false | None -> false
      in
      let plain = List.filter_map
          (function (Asttypes.Nolabel, a) -> Some a | _ -> None) args
      in
      match name with
      | "spawn" when (match qualifier txt with Some "Domain" -> true | _ -> false)
        -> (match plain with a :: _ -> Some [ a ] | [] -> None)
      | "submit" | "run_all"
        when qualified_pool
             || (match txt with
                | Lident n -> StringSet.mem n local_names
                | _ -> false) -> (
          match List.rev plain with last :: _ -> Some [ last ] | [] -> None)
      | _ -> None)
  | _ -> None

(* [held] is every mutex the walker considers locked; [bare_held] is
   the subset acquired by bare [Mutex.lock] sequencing, whose release
   is a plain statement an exception can skip — the only form E5
   flags.  [Mutex.protect] and [locks]-annotated wrappers release in a
   [Fun.protect] finalizer, so they extend [held] only. *)
type env = { held : StringSet.t; bare_held : StringSet.t; in_domain : bool }

(* Where a lock-relevant finding points at a declaration, remind the
   reader where that declaration lives. *)
let declared_at (f : fld) = Printf.sprintf "%s:%d" f.fl_file f.fl_line

let check_file ~fields_by_name ~toplevels ~interesting fi =
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let emit (loc : Location.t) kind msg =
    let line = line_of loc in
    let cstart, cend = cols_of loc in
    let key = (line, cstart, kind_id kind) in
    if (not (suppressed fi.anns line)) && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      findings :=
        { Report.file = fi.path; line; cstart; cend; rule = kind_id kind; msg }
        :: !findings
    end
  in
  (* Same-file lock-discipline annotations on functions, and mutable
     local bindings: name -> created inside a domain closure? *)
  let requires_fns : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let locks_fns : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let local_state : (string, bool * ann option) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ts ->
      if String.equal ts.ts_file fi.path && not ts.ts_sync then
        Hashtbl.replace local_state ts.ts_name (false, ts.ts_ann))
    toplevels;
  (* Domain-reachability seeds: names mentioned in spawn-point closure
     arguments, propagated through same-file binding bodies. *)
  let bindings : (string, Parsetree.expression) Hashtbl.t = Hashtbl.create 32 in
  let local_names = ref StringSet.empty in
  let seeds = ref StringSet.empty in
  let pre =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.Parsetree.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } ->
              Hashtbl.replace bindings txt vb.pvb_expr;
              local_names := StringSet.add txt !local_names
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  pre.structure pre fi.structure;
  let seed_it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.Parsetree.pexp_desc with
          | Pexp_apply (head, args) -> (
              match spawn_args ~local_names:!local_names head args with
              | Some closures ->
                  List.iter
                    (fun c -> seeds := StringSet.union (idents_of c) !seeds)
                    closures
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  seed_it.structure seed_it fi.structure;
  let marked = ref StringSet.empty in
  let rec propagate name =
    if (not (StringSet.mem name !marked)) && Hashtbl.mem bindings name then begin
      marked := StringSet.add name !marked;
      StringSet.iter propagate (idents_of (Hashtbl.find bindings name))
    end
  in
  StringSet.iter propagate !seeds;
  (* Field-access resolution: prefer a same-file declaration; otherwise
     a globally unique one; ambiguous cross-module names are skipped. *)
  let resolve_field name =
    match Hashtbl.find_opt fields_by_name name with
    | None -> None
    | Some candidates -> (
        match
          List.filter (fun f -> String.equal f.fl_file fi.path) candidates
        with
        | [ f ] -> Some f
        | _ :: _ -> None
        | [] -> ( match candidates with [ f ] -> Some f | _ -> None))
  in
  let check_field env (lid : Longident.t Location.loc) ~write =
    let name = last_of lid.txt in
    match resolve_field name with
    | None -> ()
    | Some f when not (interesting f) -> ()
    | Some f -> (
        match f.fl_ann with
        | Some Domain_safe -> ()
        | Some (Guarded_by m) ->
            if not (StringSet.mem m env.held) then
              emit lid.loc Unlocked_access
                (Printf.sprintf
                   "%s of field '%s' (guarded_by %s, declared at %s) without \
                    holding '%s'; wrap the access in Mutex.protect or a \
                    locks-annotated helper"
                   (if write then "write" else "read")
                   name m (declared_at f) m)
        | Some (Requires _ | Locks _) | None ->
            if env.in_domain then
              emit lid.loc Unguarded_escape
                (Printf.sprintf
                   "%s of unsynchronized mutable field '%s' (declared at %s) \
                    inside a domain-crossing closure; guard it with a mutex \
                    (guarded_by), make it atomic, or justify it with \
                    domain_safe"
                   (if write then "write" else "read")
                   name (declared_at f)))
  in
  let check_ident env name (loc : Location.t) =
    match Hashtbl.find_opt local_state name with
    | None -> ()
    | Some (_, Some Domain_safe) -> ()
    | Some (_, Some (Guarded_by m)) ->
        if not (StringSet.mem m env.held) then
          emit loc Unlocked_access
            (Printf.sprintf
               "use of '%s' (guarded_by %s) without holding '%s'" name m m)
    | Some (created_in_domain, _) ->
        if env.in_domain && not created_in_domain then
          emit loc Unguarded_escape
            (Printf.sprintf
               "mutable binding '%s' created outside this domain-crossing \
                closure is accessed inside it without synchronization; use \
                an Atomic, a mutex-guarded structure, or justify it with \
                domain_safe"
               name)
  in
  let rec walk env (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_sequence (a, b) ->
        walk env a;
        let env =
          match mutex_call a with
          | Some ("lock", m) ->
              {
                env with
                held = StringSet.add m env.held;
                bare_held = StringSet.add m env.bare_held;
              }
          | Some ("unlock", m) ->
              {
                env with
                held = StringSet.remove m env.held;
                bare_held = StringSet.remove m env.bare_held;
              }
          | _ -> env
        in
        walk env b
    | Pexp_let (_, vbs, body) ->
        List.iter (register_binding env) vbs;
        List.iter (walk_binding env) vbs;
        walk env body
    | Pexp_fun (_, default, _, body) ->
        Option.iter (walk env) default;
        walk env body
    | Pexp_function cases -> List.iter (walk_case env) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        walk env scrut;
        List.iter (walk_case env) cases
    | Pexp_field (r, lid) ->
        check_field env lid ~write:false;
        walk env r
    | Pexp_setfield (r, lid, v) ->
        check_field env lid ~write:true;
        walk env r;
        walk env v
    | Pexp_ident { txt = Lident x; loc } -> check_ident env x loc
    | Pexp_apply (head, args) -> walk_apply env e head args
    | _ -> fallback env e
  and fallback env e =
    let it =
      {
        Ast_iterator.default_iterator with
        expr = (fun _ child -> walk env child);
      }
    in
    Ast_iterator.default_iterator.expr it e
  and walk_case env (c : Parsetree.case) =
    Option.iter (walk env) c.pc_guard;
    walk env c.pc_rhs
  and walk_apply env e head args =
    let plain_args = List.map snd args in
    match spawn_args ~local_names:!local_names head args with
    | Some closures ->
        walk env head;
        List.iter
          (fun a ->
            if List.memq a closures then walk { env with in_domain = true } a
            else walk env a)
          plain_args
    | None -> (
        (* E5: failpoint sites raise by injection; under a bare lock
           the matching unlock is skipped on the injected path. *)
        (match head.pexp_desc with
        | Pexp_ident { txt; loc }
          when (match qualifier txt with
               | Some "Failpoint" -> true
               | Some _ | None -> false)
               && List.exists (String.equal (last_of txt))
                    [ "apply"; "read_file"; "trigger" ] ->
            StringSet.iter
              (fun m ->
                emit loc Raise_under_lock
                  (Printf.sprintf
                     "call to 'Failpoint.%s' (may raise by injection) while \
                      '%s' is held via bare Mutex.lock — an injected fault \
                      skips the unlock and leaks the lock; use Mutex.protect \
                      or release-and-reraise around the failpoint site"
                     (last_of txt) m))
              env.bare_held
        | _ -> ());
        match head.pexp_desc with
        | Pexp_ident { txt = Ldot (Lident "Mutex", "protect"); _ } -> (
            match plain_args with
            | m :: rest ->
                walk env m;
                let env' =
                  { env with held = StringSet.add (path_name m) env.held }
                in
                List.iter (walk env') rest
            | [] -> ())
        | Pexp_ident { txt = Lident "ref"; loc = _ }
          when List.length plain_args = 1 ->
            fallback env e
        | Pexp_ident { txt = Lident f; loc }
          when Hashtbl.mem requires_fns f || Hashtbl.mem locks_fns f ->
            (match Hashtbl.find_opt requires_fns f with
            | Some m when not (StringSet.mem m env.held) ->
                emit loc Requires_lock
                  (Printf.sprintf
                     "call to '%s' (requires_lock %s) without holding '%s'"
                     f m m)
            | Some _ | None -> ());
            let env' =
              match Hashtbl.find_opt locks_fns f with
              | Some m -> { env with held = StringSet.add m env.held }
              | None -> env
            in
            List.iter
              (fun (a : Parsetree.expression) ->
                match a.pexp_desc with
                | Pexp_fun _ | Pexp_function _ -> walk env' a
                | _ -> walk env a)
              plain_args
        | Pexp_ident { txt = Lident (("!" | ":=" | "incr" | "decr") as op); _ }
          -> (
            match plain_args with
            | ({ pexp_desc = Pexp_ident { txt = Lident x; loc }; _ } as _r)
              :: rest ->
                check_ident env x loc;
                ignore op;
                List.iter (walk env) rest
            | _ -> fallback env e)
        | _ -> fallback env e)
  and register_binding _env (vb : Parsetree.value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } ->
        List.iter
          (function
            | Requires m -> Hashtbl.replace requires_fns txt m
            | Locks m -> Hashtbl.replace locks_fns txt m
            | Guarded_by _ | Domain_safe -> ())
          (anns_at fi.anns (line_of vb.pvb_loc))
    | _ -> ()
  and walk_binding env (vb : Parsetree.value_binding) =
    let env =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } ->
          (match state_ctor_of vb.pvb_expr with
          | Some (_, true) -> ()
          | Some (_, false) ->
              Hashtbl.replace local_state txt
                (env.in_domain, binding_ann fi.anns (line_of vb.pvb_loc))
          | None -> ());
          let env =
            if StringSet.mem txt !marked then { env with in_domain = true }
            else env
          in
          (match Hashtbl.find_opt requires_fns txt with
          | Some m -> { env with held = StringSet.add m env.held }
          | None -> env)
      | _ -> env
    in
    walk env vb.pvb_expr
  in
  let top =
    { held = StringSet.empty; bare_held = StringSet.empty; in_domain = false }
  in
  iter_items
    (function
      | Pstr_value (_, vbs) ->
          List.iter (register_binding top) vbs;
          List.iter (walk_binding top) vbs
      | Pstr_eval (e, _) -> walk top e
      | _ -> ())
    fi.structure;
  !findings

(* E4: every mutable member of a frozen-builder module carries its
   safety argument. *)
let frozen_findings ~interesting fields toplevels =
  let frozen file =
    List.exists (String.equal (Filename.basename file)) frozen_modules
  in
  let of_field f =
    if frozen f.fl_file && interesting f && f.fl_ann = None then
      Some
        {
          Report.file = f.fl_file;
          line = f.fl_line;
          cstart = f.fl_cstart;
          cend = f.fl_cend;
          rule = kind_id Frozen_mutable;
          msg =
            Printf.sprintf
              "mutable member '%s' of frozen-builder module %s has no safety \
               argument; values of this module are shared read-only across \
               domains — annotate it guarded_by or domain_safe"
              f.fl_name f.fl_module;
        }
    else None
  in
  let of_toplevel ts =
    if frozen ts.ts_file && (not ts.ts_sync) && ts.ts_ann = None then
      Some
        {
          Report.file = ts.ts_file;
          line = ts.ts_line;
          cstart = 0;
          cend = 0;
          rule = kind_id Frozen_mutable;
          msg =
            Printf.sprintf
              "module-level mutable binding '%s' (%s) in frozen-builder \
               module has no safety argument; annotate it guarded_by or \
               domain_safe"
              ts.ts_name ts.ts_what;
        }
    else None
  in
  List.filter_map of_field fields @ List.filter_map of_toplevel toplevels

(* ------------------------------------------------------------------ *)
(* Driver (loader, output and exit contract live in Xks_report)       *)

let () =
  run ~tool ~verbs (fun _ infos ->
      let fields = List.concat_map fields_of_file infos in
      let toplevels = List.concat_map toplevels_of_file infos in
      let unsafe = compute_unsafe fields in
      let interesting f =
        f.fl_mutable
        || f.fl_container <> None
        || List.exists unsafe f.fl_refs
        || (match f.fl_ann with Some (Guarded_by _) -> true | _ -> false)
      in
      let fields_by_name : (string, fld list) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun f ->
          if interesting f then
            let prev =
              Option.value
                (Hashtbl.find_opt fields_by_name f.fl_name)
                ~default:[]
            in
            Hashtbl.replace fields_by_name f.fl_name (f :: prev))
        fields;
      frozen_findings ~interesting fields toplevels
      @ List.concat_map
          (check_file ~fields_by_name ~toplevels ~interesting)
          infos)
