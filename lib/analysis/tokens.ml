(* Token-structure helpers shared by every pass: dotted names, paren
   matching, top-level item boundaries, argument groups, and the shapes
   of simple [let] bindings. *)

let last2 name =
  match String.rindex_opt name '.' with
  | None -> name
  | Some j -> (
    match String.rindex_from_opt name (j - 1) '.' with
    | None -> name
    | Some k -> String.sub name (k + 1) (String.length name - k - 1))

let is_simple name = not (String.contains name '.')
let segments name = String.split_on_char '.' name
let last_segment name = List.nth (segments name) (List.length (segments name) - 1)

(* Canonical name of a mentioned store — a container, counter or mutex:
   [Module.x] for a module-level binding [local] recognises, the last
   two segments of a module path, [.field] for a record-field path
   (same-named fields merge across types — an accepted
   over-approximation), ["?"]-prefixed when identity is unknowable
   (locals, parameters, complex expressions). *)
let canon ~mdl ~local raw =
  if is_simple raw then if local raw then mdl ^ "." ^ raw else "?" ^ raw
  else
    let first = List.hd (segments raw) in
    if first <> "" && first.[0] >= 'A' && first.[0] <= 'Z' then last2 raw
    else "." ^ last_segment raw

let canonical s = String.length s > 0 && s.[0] <> '?'

let qualified (a : Lexer.token array) i =
  let n = Array.length a in
  let buf = Buffer.create 24 in
  Buffer.add_string buf a.(i).Lexer.text;
  let j = ref (i + 1) in
  let continue = ref true in
  while !continue do
    if !j + 1 < n && a.(!j).Lexer.text = "." && Lexer.is_ident a.(!j + 1).Lexer.text then begin
      Buffer.add_char buf '.';
      Buffer.add_string buf a.(!j + 1).Lexer.text;
      j := !j + 2
    end
    else continue := false
  done;
  (Buffer.contents buf, a.(i).Lexer.line, !j)

type atom = AName of string | AParen of string option | AOther

(* [parse_atom a pm i] consumes one argument-shaped expression starting
   at token [i]: a (possibly dotted) name, or a parenthesised expression
   whose first inner name is taken as its head. *)
let parse_atom (a : Lexer.token array) (pm : int array) i =
  let n = Array.length a in
  if i >= n then (AOther, i)
  else if a.(i).Lexer.text = "(" then begin
    let close = if pm.(i) >= 0 then pm.(i) else n - 1 in
    let j = ref (i + 1) in
    while !j < close && a.(!j).Lexer.text = "(" do
      incr j
    done;
    let head =
      if !j < close && Lexer.is_ident a.(!j).Lexer.text then
        let name, _, _ = qualified a !j in
        Some name
      else None
    in
    (AParen head, close + 1)
  end
  else if Lexer.is_ident a.(i).Lexer.text then begin
    let name, _, next = qualified a i in
    (AName name, next)
  end
  else (AOther, i + 1)

let paren_matches (a : Lexer.token array) =
  let n = Array.length a in
  let pm = Array.make n (-1) in
  let stack = ref [] in
  for i = 0 to n - 1 do
    match a.(i).Lexer.text with
    | "(" -> stack := i :: !stack
    | ")" -> (
      match !stack with
      | o :: rest ->
        pm.(o) <- i;
        stack := rest
      | [] -> ())
    | _ -> ()
  done;
  pm

let boundary_keywords = [ "let"; "module"; "open"; "type"; "exception"; "include"; "and"; "end" ]

let boundaries (a : Lexer.token array) =
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      if t.Lexer.col = 0 && List.mem t.Lexer.text boundary_keywords then out := i :: !out)
    a;
  List.rev !out

(* Skip one argument-shaped token group: a dotted name, a balanced
   ()/[]/{} group, or a single token. Labels are skipped transparently
   by the callers. *)
let skip_group (a : Lexer.token array) i =
  let n = Array.length a in
  match a.(i).Lexer.text with
  | "(" | "[" | "{" ->
    let depth = ref 0 in
    let j = ref i in
    let stop = ref (-1) in
    while !stop < 0 && !j < n do
      (match a.(!j).Lexer.text with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" ->
        decr depth;
        if !depth = 0 then stop := !j
      | _ -> ());
      incr j
    done;
    if !stop >= 0 then !stop + 1 else n
  | t when Lexer.is_ident t ->
    let _, _, j = qualified a i in
    j
  | _ -> i + 1

(* The [k]-th positional argument after token [i], as a dotted name
   with its start token; [~label:] arguments are skipped. *)
let rec nth_arg_pos (a : Lexer.token array) i k =
  let n = Array.length a in
  if i >= n then None
  else if a.(i).Lexer.text = "~" && i + 2 < n && a.(i + 2).Lexer.text = ":" then
    nth_arg_pos a (skip_group a (i + 3)) k
  else if k = 0 then
    if Lexer.is_ident a.(i).Lexer.text then
      let name, _, _ = qualified a i in
      Some (name, i)
    else None
  else nth_arg_pos a (skip_group a i) (k - 1)

(* Split the parenthesised region (s, pm.(s)) at depth-0 commas and
   return the head name of each component — the shape of a literal
   tuple expression. [None] if there is no depth-0 comma. *)
let tuple_components (a : Lexer.token array) pm s =
  if s >= Array.length a || a.(s).Lexer.text <> "(" || pm.(s) < 0 then None
  else begin
    let close = pm.(s) in
    let depth = ref 0 in
    let comps = ref [] in
    let head = ref None in
    let ncommas = ref 0 in
    let i = ref (s + 1) in
    while !i < close do
      let t = a.(!i).Lexer.text in
      (match t with
      | "(" | "[" | "{" -> incr depth
      | ")" | "]" | "}" -> decr depth
      | "," when !depth = 0 ->
        incr ncommas;
        comps := !head :: !comps;
        head := None
      | _ ->
        if !head = None && Lexer.is_ident t then begin
          let name, _, _ = qualified a !i in
          head := Some name
        end);
      incr i
    done;
    if !ncommas = 0 then None
    else begin
      comps := !head :: !comps;
      Some (List.rev !comps)
    end
  end

type pattern = PVar of string | PTuple of string list
type rhs = RHead of string option | RTuple of string option list

(* A binding [let <pat> = <rhs>] at token [i], where <pat> is a plain
   variable or a flat tuple of simple names (optionally parenthesised):
   returns the pattern, the right-hand-side shape (a head name, or per-
   component heads for a literal tuple) and the index of the [=]. *)
let binding_at (a : Lexer.token array) pm i =
  let n = Array.length a in
  if a.(i).Lexer.text <> "let" then None
  else
    let j = if i + 1 < n && a.(i + 1).Lexer.text = "rec" then i + 2 else i + 1 in
    (* a comma-separated run of simple names over [j0, close) *)
    let names_upto j0 close =
      let rec go acc k expect_name =
        if k = close then if expect_name then None else Some (List.rev acc)
        else if expect_name then
          if Lexer.is_ident a.(k).Lexer.text then go (a.(k).Lexer.text :: acc) (k + 1) false
          else None
        else if a.(k).Lexer.text = "," then go acc (k + 1) true
        else None
      in
      go [] j0 true
    in
    let pat =
      if j >= n then None
      else if a.(j).Lexer.text = "(" && pm.(j) >= 0 && pm.(j) + 1 < n
              && a.(pm.(j) + 1).Lexer.text = "=" then
        match names_upto (j + 1) pm.(j) with
        | Some [ x ] -> Some (PVar x, pm.(j) + 1)
        | Some (_ :: _ :: _ as xs) -> Some (PTuple xs, pm.(j) + 1)
        | _ -> None
      else if Lexer.is_ident a.(j).Lexer.text then
        if j + 1 < n && a.(j + 1).Lexer.text = "=" then Some (PVar a.(j).Lexer.text, j + 1)
        else if j + 1 < n && a.(j + 1).Lexer.text = "," then begin
          (* scan forward for the [=] closing the pattern *)
          let k = ref (j + 1) in
          while !k < n && (a.(!k).Lexer.text = "," || Lexer.is_ident a.(!k).Lexer.text) do
            incr k
          done;
          if !k < n && a.(!k).Lexer.text = "=" then
            match names_upto j !k with
            | Some (_ :: _ :: _ as xs) -> Some (PTuple xs, !k)
            | _ -> None
          else None
        end
        else None
      else None
    in
    match pat with
    | None -> None
    | Some (pat, eq) ->
      let rhs =
        match tuple_components a pm (eq + 1) with
        | Some comps -> RTuple comps
        | None ->
          let k = ref (eq + 1) in
          while !k < n && a.(!k).Lexer.text = "(" do
            incr k
          done;
          RHead
            (if !k < n && Lexer.is_ident a.(!k).Lexer.text then
               let name, _, _ = qualified a !k in
               Some name
             else None)
      in
      Some (pat, rhs, eq)
