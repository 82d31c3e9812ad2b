(** Front end 3: whole-project interprocedural event-flow analysis.

    The per-file lint ({!Source_lint}) stops at module boundaries: a
    bare remote completion returned from another file, smuggled through
    a record field, or a suspension hidden behind a call are all
    invisible to it. This pass reads {e every} source's top-level items
    from the {!Project} binding model ([let] and [and] alike), builds a
    summary per function item (returns a remote completion, waits on a
    parameter, suspends, acquires mutexes), harvests module-level facts
    (int constants, list lengths, mutexes, bare completions) from the
    value items' right-hand-side heads, and resolves calls with
    {!Project.resolve}. One walk of a body recomputes its summary from
    its callees'; {!Project.solve} runs the walks bottom-up to the
    fixpoint, so facts flow through returns, tuple components and
    arguments. Record-field facts link functions the call graph does
    not: each field keeps its first setter in file order, and the pass
    solves again while that table changes. Whole-program rules:

    - {b cross-module-red-wait}: a bare rpc/disk completion produced in
      one module and [Sched.wait]ed in another (directly, via a record
      field, or via an argument passed to a waiting callee). Same-file
      facts are deliberately left to {!Source_lint} — no double
      reporting.
    - {b lock-across-call}: a call made while holding a [Depfast.Mutex]
      into a function that (transitively) suspends on an event.
    - {b lock-order-cycle}: a cycle in the static mutex
      acquisition-order graph (nested regions and held-across-call
      acquisitions), with a witness path in the message.
    - {b quorum-arity-mismatch}: [Event.quorum (Count k)] where [k]
      (resolved through constants, possibly cross-module) exceeds the
      children that statically flow in via [Event.add].

    Soundness: this is a token-level heuristic, neither sound nor
    complete — names are resolved on their last two dot-segments,
    record fields merge by name across types, and control flow is
    ignored (every call in a body is assumed reachable). It is a
    reviewer that never sleeps, not a verifier. Findings honour the
    same [(* depfast-lint: allow rule-id *)] pragmas as the per-file
    pass. *)

val analyze : Project.t -> Finding.t list
(** The pass over a loaded project: reads its items, {!Project.resolve}
    and {!Project.solve}; pragma-applied, sorted by location.
    @raise Failure from {!Project.solve} if a call cycle's summaries
    never settle. *)

val analyze_sources : (string * string) list -> Finding.t list
(** [(path, contents)] pairs — the whole project at once. *)

val analyze_files : string list -> Finding.t list
