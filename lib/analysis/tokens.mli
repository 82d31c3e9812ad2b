(** Token-structure helpers over {!Lexer} output, shared by the project
    front end ({!Project}) and every pass; stable only within this
    library. *)

val last2 : string -> string
(** The last two dot-segments of a qualified name. *)

val is_simple : string -> bool
(** True when the name has no dot. *)

val segments : string -> string list
val last_segment : string -> string

val canon : mdl:string -> local:(string -> bool) -> string -> string
(** Canonical name of a mentioned store (container, counter, mutex) in
    module [mdl]: [Module.x] for a simple name [local] accepts as a
    module-level binding, the last two segments of a module path,
    [.field] for a record-field path (same-named fields merge across
    types), and ["?"]-prefixed when its identity is unknowable. *)

val canonical : string -> bool
(** Not ["?"]-prefixed: a {!canon} name with a stable identity. *)

val qualified : Lexer.token array -> int -> string * int * int
(** [qualified a i] reads the dotted name starting at token [i]:
    (name, line, index past it). *)

type atom = AName of string | AParen of string option | AOther

val parse_atom : Lexer.token array -> int array -> int -> atom * int
(** Consume one argument-shaped expression: a dotted name, or a
    parenthesised expression reduced to its first inner head. *)

val paren_matches : Lexer.token array -> int array
(** [pm.(i)] is the index of the [')'] matching an ['('] at [i], or -1. *)

val boundaries : Lexer.token array -> int list
(** Indices of column-0 structure keywords ([let], [module], ...) —
    top-level item boundaries. *)

val nth_arg_pos : Lexer.token array -> int -> int -> (string * int) option
(** [nth_arg_pos a i k]: the [k]-th positional argument after token [i]
    as a dotted name, with its start token; [~label:] arguments are
    skipped. [None] when that argument is not a name. *)

val tuple_components : Lexer.token array -> int array -> int -> string option list option
(** Head names of the components of a literal tuple [(e1, e2, ...)]
    starting at the given ['('] token; [None] if it is not one. *)

type pattern = PVar of string | PTuple of string list
type rhs = RHead of string option | RTuple of string option list

val binding_at : Lexer.token array -> int array -> int -> (pattern * rhs * int) option
(** A binding [let <pat> = <rhs>] at token [i], where the pattern is a
    plain variable or a flat tuple of simple names: the pattern, the
    right-hand-side shape and the index of the [=]. Function definitions
    (parameters before the [=]) return [None]. *)
