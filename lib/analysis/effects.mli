(** The mutable-state inventory and interprocedural effect analysis
    behind the depfast-domains pass ({!Domains}).

    The {e inventory} finds every top-level mutable cell in the tree —
    [ref]s, top-level [Queue]/[Hashtbl]/[Buffer]/[Rlog]/[Atomic]
    values (through optional [: ty] annotations and [lazy] wrappers),
    top-level records carrying a [mutable] label, and every [mutable]
    field declaration — each under a stable canonical name:
    [Module.x] for module-level bindings, [.field] for record fields
    (same-named fields merge across types, the growth pass's accepted
    over-approximation).

    The {e effect analysis} then records, per function, which cells it
    reads and writes — through the container operation tables
    ([Queue.add], [Hashtbl.replace], [Atomic.set], ...), direct forms
    ([x := e], [!x], [incr]/[decr], [t.f <- e], bare field reads), and
    alias escapes (an unconsumed mention of a cell, counted as a read:
    writes through the escaping alias are a documented static blind
    spot, which the dynamic probe cross-check in [lib/check] exists to
    catch) — and closes each function's footprint over its callees'
    with {!Project.solve}, so effects cross modules and call cycles. Writes lexically
    inside a [Mutex.with_lock] body or a [Mutex.lock]..[unlock] span
    are marked guarded; the lock fact does {e not} flow through calls
    (a helper that writes under a caller's lock still reads as
    unguarded — keep the write in the lock's lexical region).

    Like the other front ends this is token-level and neither sound
    nor complete; {!Domains} turns the result into ownership verdicts
    and certificates. *)

type cell_kind = Ref | Queue | Hash | Buf | Log | Atomic | Record | Field

val kind_name : cell_kind -> string

type cell = {
  cl_name : string;  (** canonical: [Module.x], or [.field] *)
  cl_kind : cell_kind;
  cl_file : string;
  cl_line : int;
}

type access = {
  a_fn : string;  (** qualified function recording the access *)
  a_cell : string;
  a_file : string;
  a_line : int;
  a_write : bool;
  a_locked : bool;  (** lexically inside a Mutex region *)
  a_top : bool;  (** field access whose base resolves to a top-level cell *)
  a_escape : bool;  (** unconsumed alias-escaping mention, read-only *)
}

type footprint = {
  f_reads : string list;  (** sorted canonical cells read *)
  f_writes : string list;  (** sorted canonical cells written *)
}

type t = {
  e_cells : cell list;  (** sorted by canonical name *)
  e_accesses : access list;  (** sorted by (cell, file, line, fn) *)
  e_footprints : (string, footprint) Hashtbl.t;
      (** qname -> closed (transitive) effect footprint *)
}

val compute : Project.t -> t

val footprint : t -> string -> footprint option
(** The closed footprint of a function by qualified name. *)
