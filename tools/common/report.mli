(** The output contract shared by the four xks static analyzers
    (xkslint, xksrace, xksleak, xkscost); their common front end is
    {!Program}.

    One contract for all four binaries: findings print in the
    compiler's location format or as one JSON object under [--json]
    with the unified schema [{file, line, cstart, cend, rule,
    message}]; exit status is 0 clean, 1 findings, 2 usage or parse
    errors. *)

type finding = {
  file : string;
  line : int;  (** 1-based *)
  cstart : int;  (** column span, 0-based, compiler convention *)
  cend : int;
  rule : string;  (** kebab-case rule id, e.g. ["leak-on-raise"] *)
  msg : string;
}

type options = {
  json : bool;  (** [--json] present *)
  rules : string list option;  (** [--rules] filter; [None] = all rules *)
  roots : string list;  (** directory roots to scan *)
}

val parse_argv_opts :
  ?known_rules:string list -> tool:string -> string array -> options
(** Parse [argv] into {!options}.  [--rules ID[,ID...]] is accepted only
    when [known_rules] is given (so CI can stage rules in one id at a
    time); an unknown id, an empty root list or a nonexistent root exits
    2. *)

val rule_enabled : options -> string -> bool
(** Whether findings of rule [id] should be emitted under the parsed
    [--rules] filter (always [true] without one). *)

val report : tool:string -> json:bool -> files_scanned:int -> finding list -> unit
(** Sort (file, line, column, rule id), print (text in the two-line
    compiler format, or one JSON object) and exit: 0 when clean, 1 with
    findings (text mode adds a one-line stderr summary). *)
