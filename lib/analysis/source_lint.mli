(** Front end 1: call-site lint over OCaml sources.

    A token-level scanner (no type information) that tracks, per file:
    which let-bound variables hold bare remote completion events, which
    top-level functions return one, which compounds are [and_]s, and
    which regions run under a [Depfast.Mutex]. Rules:

    - {b red-wait}: [Sched.wait]/[wait_timeout] applied directly to an
      [Event.rpc_completion]/[disk_completion] (or a local function
      returning one) outside a quorum/or_ wrapper.
    - {b unbounded-wait}: a plain [Sched.wait] (no timeout) on a bare
      rpc completion — no [or_]/timer escape at all.
    - {b degenerate-quorum}: an [Event.and_] that accumulates two or
      more remote completions via [Event.add] (k = n).
    - {b lock-across-wait}: any suspension point ([Sched.wait],
      [Condvar.wait], ...) inside a [Mutex.with_lock] body or between
      [Mutex.lock]/[unlock].

    Findings at a line L are exempted by a pragma comment
    [(* depfast-lint: allow rule-id ... *)] starting on lines L-3..L.

    Remote completions are tracked through plain and flat-tuple [let]
    bindings ([let ev, meta = begin_call peer in ...]) and through
    local functions returning them, scalar or tuple-shaped. Remaining
    blind spots, accepted for a {e per-file} pass: events crossing
    module boundaries (other than the built-in
    [Cluster.Rpc.event]/[Cluster.Disk.read] producers), record fields,
    and lock/suspension facts hidden behind calls — all of which
    {!Interproc} closes with whole-project summaries.
    [Disk.write]/[fsync] are deliberately {e not} treated as remote
    producers: awaiting one's own WAL durability is protocol-inherent,
    while a blocking [Disk.read] on the request path is the TiDB
    anti-pattern (§2). *)

val lint : Project.file -> Finding.t list
(** Lint one scanned file; findings are pragma-applied and sorted by
    location. *)

val lint_string : ?path:string -> string -> Finding.t list
(** Lint source text; [path] names the file in locations. *)

val lint_file : string -> Finding.t list

(** {2 Remote-completion vocabulary}

    Shared with the interprocedural pass ({!Interproc}); stable only
    within this library. *)

type kind = Rpc | Disk

val kind_name : kind -> string

val builtin_producers : (string * kind) list
(** Qualified names (matched on their last two segments) constructing a
    bare remote-completion event. *)

val local_constructors : string list
(** Heads constructing a local or compound event — binding one cancels
    any remote-completion fact. *)

val iter_names : string list
(** Iteration heads ([List.iter], [Array.iteri], ...) whose closure
    argument runs once per element. *)
