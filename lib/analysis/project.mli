(** The analysis front end shared by every pass.

    {!load} reads and scans each source once: its tokens, paren matches,
    pragmas and top-level item spans. On top of that scan it keeps the
    whole-project model the growth, effect and propagation analyses
    share, built on first use: a table of top-level items, a call graph
    where {e any} resolvable name mentioned in a body is an edge
    (closures are treated as invoked, so a pump thunk stored in a record
    still connects its installer to the drain), and the set of
    {e remote-triggered roots} — functions named inside the closure
    argument of [Rpc.serve]/[Net.register] handlers, [spawn] thunks, and
    [Event.on_fire] callbacks — with each root's reachable set.

    The per-file passes ({!Source_lint}, {!Interproc}) read only the
    scan, so they never pay for the model. Like the passes this is
    token-level: names resolve on their last two dot-segments, and every
    mention is assumed reachable. *)

type fn = {
  g_qname : string;  (** [Module.name]; [Module.<unit:L>] for anonymous items *)
  g_line : int;
  g_b : int;  (** first token of the item *)
  g_e : int;  (** exclusive *)
}

type file = private {
  fc_path : string;
  fc_mdl : string;  (** module name, from the file name *)
  fc_toks : Lexer.token array;
  fc_pm : int array;  (** {!Tokens.paren_matches} *)
  fc_pragmas : Lexer.pragma list;
  fc_items : (int * int) list;  (** top-level item spans [\[b, e)] *)
  fc_defs : (fn list * (string, unit) Hashtbl.t) Lazy.t;  (** read through {!fns}, {!stores} *)
}

type t

val read_file : string -> string

val source_files : string list -> string list
(** The [.ml] files under the given paths, in sorted walk order:
    directories named [_build] or [.git] and [*.pp.ml] files are
    skipped. A path naming a file is taken as is when it is such a
    source. *)

val scan : string * string -> file
(** Scan one [(path, contents)] pair. *)

val load : (string * string) list -> t
(** Scan every [(path, contents)] pair; the model is built when a query
    first needs it. *)

val load_files : string list -> t

val files : t -> file list

val fns : file -> fn list
(** The file's [let]/[and] items, in source order. *)

val stores : file -> (string, unit) Hashtbl.t
(** Names of the file's module-level containers
    ([let q = Queue.create ...] and the like). *)

val callees : t -> string -> string list
(** Resolved call edges out of a function, sorted; [[]] if unknown. *)

val reachable : t -> string -> (string, unit) Hashtbl.t option
(** The functions reachable from a remote-triggered root. *)

val remote_reachable : t -> string -> bool
(** Is the function with this qualified name reachable from any
    remote-triggered root? *)

val roots_reaching : t -> string -> (string * string) list
(** The remote-triggered roots whose components contain the function:
    [(root qname, why it is a root)], sorted. *)

val allowed : file list -> file:string -> rule:string -> int -> bool
(** The pragma window, for every pass: a
    [(* depfast-lint: allow rule-id ... *)] comment starting on lines
    L-3..L of [file] allows a [rule] finding at line L. *)

val apply_pragmas : file list -> Finding.t list -> Finding.t list
(** Mark the findings {!allowed} by their file's pragmas. *)
