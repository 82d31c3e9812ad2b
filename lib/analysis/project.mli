(** The analysis front end shared by every pass.

    {!load} reads and scans each source once: its tokens, paren matches,
    pragmas and top-level item spans. Each file's top-level [let]/[and]
    items are parsed once, on first use, into {!fn} records — the one
    binding model every pass reads: qualified name, shape (positional
    parameters or a value), body and right-hand-side head. Names
    {!resolve} against the table of those items.

    On top of that it keeps the whole-project model, in two parts built
    on first use. The {e call graph} has an edge for {e any} resolvable
    name mentioned in an item (closures are treated as invoked, so a
    pump thunk stored in a record still connects its installer to the
    drain); {!solve} runs every interprocedural fact to its fixpoint
    over it. The {e remote-triggered roots} — functions named inside
    the closure argument of [Rpc.serve]/[Net.register] handlers,
    [spawn] thunks, and [Event.on_fire] callbacks — and each root's
    reachable set are built from the call graph only when the growth
    analysis asks.

    {!Source_lint} reads only the scan; {!Interproc} reads the items,
    {!resolve} and {!solve}, so it forces the call graph but never the
    roots. Like the passes this is token-level: names resolve on their
    last two dot-segments, and every mention is assumed reachable. *)

type shape =
  | Anon  (** [let () = ...], [let (a, b) = ...]: no name *)
  | Value  (** [let x = e] or [let x : ty = e]: a name, then the [=] *)
  | Fun of string list
      (** positional parameters (["_"] for a pattern; [~x], [?x] skipped),
          possibly none: [let f ~x = ...] *)

type fn = {
  g_qname : string;  (** [Module.name]; [Module.<unit:L>] for anonymous items *)
  g_line : int;
  g_b : int;  (** first token of the item *)
  g_e : int;  (** exclusive *)
  g_shape : shape;
  g_body : int;
      (** first token after the item's depth-0 [=] (past a [: ty]
          annotation); [g_e] when it has none *)
  g_rhs : int;  (** the right-hand-side head: [g_body], past a leading [lazy] *)
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
(** Names of the file's module-level containers: [Value] items whose
    {!rhs_head} is [Queue.create], [Hashtbl.create], [Buffer.create] or
    [Rlog.create]. *)

val rhs_head : file -> fn -> string option
(** The dotted name at [g_rhs], if an identifier starts there. *)

val resolve : t -> mdl:string -> string -> string option
(** The qualified name of the item a mention in module [mdl] names: a
    simple name resolves in [mdl], a dotted one ([M.f], [Lib.M.f]) on
    its last two segments; [None] when no item has that name. *)

val callees : t -> string -> string list
(** Resolved call edges out of an item, sorted; a recursive body keeps
    its self-edge, and items sharing a qualified name share one edge
    set. [[]] if unknown. *)

val solve : t -> (string -> bool) -> unit
(** [solve p transfer] visits the call graph's strongly connected
    components callees first; [transfer q] recomputes [q]'s facts from
    its callees' and says whether they changed. An acyclic component
    gets one call; a cyclic one (a self-edge included) is swept, members
    in name order, until a sweep changes nothing.
    @raise Failure naming the members of a component still changing
    after [8 * (size + 1)] sweeps: nothing is cut silently. *)

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
