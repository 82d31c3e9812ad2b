(** The growth analysis and the certificate format behind the
    depfast-bounds pass ({!Bounds}), over the {!Project} model.

    The analysis collects {e accumulation sites}
    ([Queue.add], [Hashtbl.add], [Buffer.add_*], [Rlog.append], list
    cons onto a field, counter-window increments) over {e canonical}
    containers (module-level stores as [Module.x], record fields as
    [.field]; locals are scoped and skipped) and {e bound evidence}
    (drains, truncation, length-comparison capacity checks, counter
    decrements). A site reachable from a remote-triggered root is
    flagged {!Finding.unbounded_growth} when {e some} root's reachable
    component contains no bound evidence for its container: the exists
    semantics means backpressure must live on the producing path, not
    in a sibling drain loop. Counter windows never flag — a bare [int]
    consumes no memory — they only yield certificates when bounded.

    Like the other front ends this is a token-level heuristic, neither
    sound nor complete; same-named record fields merge across types and
    every mention is assumed reachable. *)

(** {2 Boundedness certificates} *)

type verdict = Bounded | Flagged

type cert = {
  c_rule : string;  (** the rule family this site was judged under *)
  c_kind : string;
      (** [queue | hashtbl | buffer | log | cons | counter-window |
          quorum-wait | retry] *)
  c_file : string;
  c_line : int;
  c_site : string;  (** canonical container / window name, or the function *)
  c_verdict : verdict;
  c_evidence : string;  (** witness: what bounds it, or why it is flagged *)
}

val verdict_name : verdict -> string
val cert_to_json : cert -> string
val by_site : cert -> cert -> int

val analyze : Project.t -> Finding.t list * cert list
(** The growth analysis: {!Finding.unbounded_growth} findings (pragmas
    not yet applied) and a certificate per remote-reachable site. *)
