(** The pass list: the five static passes — [source-lint], [interproc],
    [bounds], [domains], [spg] — as records that all read one loaded
    {!Project.t}. The depfast_lint CLI, [Check.Certificate.build] and
    the bench iterate {!all} instead of calling each pass by hand.

    The analyses more than one pass reads are computed at most once per
    project, and only when a pass forces them: {!Growth.analyze} (read
    by [bounds] and, through {!Propagation}, by [spg]),
    {!Effects.compute} ([domains]) and {!Propagation.analyze} ([spg]).
    [source-lint] and [interproc] read only the scan. The lazy fields
    are not safe to force from two domains at once: share a value
    within one domain. *)

type shared = {
  project : Project.t;
  growth : (Finding.t list * Growth.cert list) Lazy.t;
  effects : Effects.t Lazy.t;
  taint : Propagation.t Lazy.t;
}

val share : Project.t -> shared

type output = {
  findings : Finding.t list;  (** pragma-applied, in the pass's own order *)
  certs : Growth.cert list;  (** sorted by site; [[]] for the wait-structure passes *)
  footprints : Domains.footprint list;  (** [domains] only *)
  exposures : (string * (string * string) list) list;  (** [spg] only *)
}

type t = {
  name : string;  (** the pass tag in lint output; the CLI flag is [--name] *)
  certifies : bool;  (** emits certificates (bounds, domains, spg) *)
  summary : Growth.cert list -> string;
      (** the pass's tail on the lint summary line, from its certificates *)
  run : shared -> output;
}

val all : t list
(** In reporting order: source-lint, interproc, bounds, domains, spg.
    Each [run] gives the same findings and certificates as the pass's
    standalone [analyze_sources]. *)
