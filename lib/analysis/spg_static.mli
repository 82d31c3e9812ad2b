(** The depfast-spg pass: a static slowness-propagation map.

    For every wait site in the project, computes its {e static exposure
    set} — which fail-slow resource kinds ({!Propagation.fault}) can
    reach the waiting function through the call graph, in which role
    (["self"]: the seed lives in the same file; ["peer"]: a remote
    resource) — and its {e color} in the {!Spg.color} sense: quorum-k
    waits ([Event.quorum]/[or_] bindings) are green, everything
    fate-sharing (bare events, [and_], condvar handoffs) is red.
    Timeout coverage mirrors {!Bounds}: [wait_timeout], an [or_]
    binding, or an [Event.add ~child:(Sched.timer ...)] escape marks
    the wait covered.

    Findings: {!Finding.red_exposure} for a red, exposed, uncovered
    wait; {!Finding.unreached_mitigation} for a green quorum whose
    [Count] arity flows from a tainted call. Certificates: one
    ["wait"] certificate per site and one ["propagation"] certificate
    per (wait x exposure) pair, each carrying the deterministic
    least-(fn, line) witness path from {!Propagation}. Pragma comments
    [(* depfast-lint: allow red-exposure ... *)] exempt findings as in
    every other pass. *)

val analyze_project :
  Project.t ->
  Propagation.t ->
  Finding.t list * Growth.cert list * (string * (string * string) list) list
(** The pass over a loaded project, given {!Propagation.analyze}'s
    taint for it: findings (pragmas applied, sorted), certificates
    (sorted by site), and the per-file exposure summary: [(path,
    (fault-name, color) pairs)] — the static blast radius the dynamic cross-check in
    [lib/check] compares observed SPG edges against. *)

val analyze_sources :
  (string * string) list ->
  Finding.t list * Growth.cert list * (string * (string * string) list) list

val analyze_files :
  string list ->
  Finding.t list * Growth.cert list * (string * (string * string) list) list
