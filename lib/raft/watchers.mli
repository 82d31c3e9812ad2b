(** Per-follower replication-round watchers.

    Each replication round registers one progress event per follower,
    keyed by the round's last log index (its target); the event fires once
    the follower's match index reaches the target. Within a leader term
    targets only grow, so the watchers form a FIFO queue ordered by target
    and the ready ones are always a prefix: {!fire_upto} costs O(ready),
    not O(pending). A follower far behind the leader therefore costs each
    round O(1), however long its backlog of unfired watchers.

    Ready watchers fire newest-first (highest target first). Simulated
    schedules and traces depend on this order, so it is part of the
    contract. *)

type t

val create : unit -> t

val add : t -> Types.index -> Depfast.Event.t -> unit
(** [add w target ev] queues [ev] to fire once the follower reaches
    [target]. O(1). Targets must not decrease over the queue's life: a
    smaller target queued behind a larger one fires only when the larger
    one does. *)

val fire_upto : t -> Types.index -> unit
(** [fire_upto w idx] removes every watcher whose target is [<= idx] and
    fires them, newest-first; the rest stay queued. Watchers are removed
    before any fires, so an [add] made by an observer of a fired event is
    kept for a later call. *)

val length : t -> int
(** Watchers still queued. *)
