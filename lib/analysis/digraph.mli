(** Strongly connected components, and a small directed graph with
    cycle reporting for {!Interproc}'s mutex acquisition-order graph. *)

val sccs : string list -> (string -> string list) -> string list list
(** Tarjan's strongly connected components of the graph over the given
    nodes (visited in list order) and successor function. Each
    component is listed after every component it reaches — callees
    first — and a node reached through [succ] but absent from the list
    still gets its component. *)

type 'w edge = { src : string; dst : string; witness : 'w }
type 'w g

val create : unit -> 'w g

val add_edge : 'w g -> src:string -> dst:string -> witness:'w -> unit
(** The first edge between two nodes keeps its witness. *)

val cycles : 'w g -> (string list * 'w edge list) list
(** One witness cycle per cyclic strongly connected component (Tarjan):
    the node path [n1; n2; ...; n1] and the edges (with witnesses)
    along it. *)
