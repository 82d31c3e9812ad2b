(** A small directed graph with cycle reporting, for {!Interproc}'s mutex
    acquisition-order graph. *)

type edge = { src : string; dst : string; witness : string }
type g

val create : unit -> g

val add_edge : g -> src:string -> dst:string -> witness:string -> unit
(** The first edge between two nodes keeps its witness. *)

val cycles : g -> (string list * edge list) list
(** One witness cycle per cyclic strongly connected component (Tarjan):
    the node path [n1; n2; ...; n1] and the edges (with witnesses)
    along it. *)
