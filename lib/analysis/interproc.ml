module SL = Source_lint
module T = Tokens

(* Where a remote-completion fact came from; only facts that crossed a
   boundary the per-file lint cannot see (another module, a record
   field) are reported here — same-file facts are Source_lint's job. *)
type prov = PLocal | PCross of string | PField of string

type qcell = {
  q_line : int;
  q_count : int option;
  mutable q_adds : int;
  mutable q_unknown : bool;
}

type vfact =
  | VRemote of SL.kind * prov
  | VParam of int
  | VInt of int
  | VList of int
  | VQuorum of qcell
  | VNone

(* A function's summary: the facts that cross call boundaries,
   recomputed by one walk of its body from its callees' summaries. *)
type summary = {
  qname : string;
  file : string;
  ret : SL.kind option list;  (* returns a bare remote completion, per tuple slot; [] unknown *)
  suspends : bool;  (* (transitively) waits on an event; sleep/yield excluded *)
  wait_params : int list;  (* sorted positions of the parameters that reach a wait *)
  acquires : string list;  (* sorted canonical mutexes taken, through callees too *)
}

(* A file and the module-level facts harvested from its [Value] items. *)
type fctx = {
  idx : int;  (* position of the file in the project *)
  path : string;
  mdl : string;
  toks : Lexer.token array;
  pm : int array;
  consts : (string, int) Hashtbl.t;  (* module-level int constants *)
  lens : (string, int) Hashtbl.t;  (* module-level list-literal lengths *)
  aliases : (string, string) Hashtbl.t;  (* module-level name -> name aliases *)
  mlocks : (string, unit) Hashtbl.t;  (* module-level mutexes *)
  mvals : (string, SL.kind) Hashtbl.t;  (* module-level bare remote completions *)
}

type state = {
  project : Project.t;
  sums : (string, summary) Hashtbl.t;  (* function qname -> summary, first wins *)
  modmap : (string, fctx) Hashtbl.t;  (* module name -> defining file, first wins *)
  fields : (string, (int * int) * SL.kind * string) Hashtbl.t;
      (* record field -> (file index, token) of its first setter, kind, set-in file *)
}

(* What one walk of an item found: its summary, its findings, the
   lock-order edges [(src, dst, line)] and the record-field setters
   [(field, kind, token)] it saw, both in walk order. *)
type walked = {
  w_sum : summary;
  w_findings : Finding.t list;
  w_edges : (string * string * int) list;
  w_setters : (string * SL.kind * int) list;
}

let is_ident_at (a : Lexer.token array) i = i < Array.length a && Lexer.is_ident a.(i).Lexer.text

let int_of_token txt =
  int_of_string_opt (String.concat "" (String.split_on_char '_' txt))

(* Canonical name of a mutex expression ({!Tokens.canon}); unknowable
   ones still count as "a lock is held" but join no order graph. *)
let canon_lock ctx raw = T.canon ~mdl:ctx.mdl ~local:(Hashtbl.mem ctx.mlocks) raw

(* ---- per-file extraction -------------------------------------------- *)

(* Length of a list literal starting at a "[" token: depth-0 [;] count. *)
let list_literal_length (a : Lexer.token array) i =
  let n = Array.length a in
  if i >= n || a.(i).Lexer.text <> "[" then None
  else begin
    let depth = ref 0 in
    let semis = ref 0 in
    let items = ref false in
    let j = ref i in
    let close = ref (-1) in
    while !close < 0 && !j < n do
      (match a.(!j).Lexer.text with
      | "[" | "(" | "{" -> incr depth
      | "]" | ")" | "}" ->
        decr depth;
        if !depth = 0 then close := !j
      | ";" when !depth = 1 -> incr semis
      | _ -> if !depth = 1 then items := true);
      incr j
    done;
    (* string literals are consumed by the lexer, so a separator implies
       two items even when no item token survives *)
    if !close < 0 then None
    else Some (if !semis > 0 then !semis + 1 else if !items then 1 else 0)
  end

(* Module-level facts of the file's [Value] items, read at their rhs
   heads: int constants, list-literal lengths, mutexes, bare remote
   completions, and lone-name aliases worth chasing for constants. *)
let module_facts idx (fc : Project.file) =
  let a = fc.Project.fc_toks in
  let ctx =
    {
      idx;
      path = fc.Project.fc_path; mdl = fc.Project.fc_mdl; toks = a; pm = fc.Project.fc_pm;
      consts = Hashtbl.create 8; lens = Hashtbl.create 8; aliases = Hashtbl.create 8;
      mlocks = Hashtbl.create 4; mvals = Hashtbl.create 4;
    }
  in
  List.iter
    (fun (f : Project.fn) ->
      let r = f.Project.g_rhs and e = f.Project.g_e in
      if f.Project.g_shape = Project.Value && r < e then begin
        let name = T.last_segment f.Project.g_qname in
        let t = a.(r).Lexer.text in
        if t = "[" then (
          match list_literal_length a r with
          | Some l -> Hashtbl.replace ctx.lens name l
          | None -> ())
        else
          match int_of_token t with
          | Some v when not (Lexer.is_ident t) -> Hashtbl.replace ctx.consts name v
          | _ ->
            if Lexer.is_ident t then begin
              let h, _, hn = T.qualified a r in
              let l2 = T.last2 h in
              if l2 = "Mutex.create" then Hashtbl.replace ctx.mlocks name ()
              else
                match List.assoc_opt l2 SL.builtin_producers with
                | Some k -> Hashtbl.replace ctx.mvals name k
                | None ->
                  (* a lone name is an alias worth chasing for constants *)
                  if hn >= e || a.(hn).Lexer.line <> a.(r).Lexer.line then
                    Hashtbl.replace ctx.aliases name h
            end
      end)
    (Project.fns fc);
  ctx

let params (fn : Project.fn) = match fn.Project.g_shape with Project.Fun ps -> ps | _ -> []

(* A call as written in module [mdl], resolved to its callee's summary. *)
let callee st ctx name =
  Option.bind (Project.resolve st.project ~mdl:ctx.mdl name) (Hashtbl.find_opt st.sums)

(* ---- cross-module constant / length resolution ----------------------- *)

(* A module-level int fact ([consts] or [lens]) of a name, chased
   through aliases and module paths, possibly across modules. *)
let rec lookup facts st ctx name depth =
  if depth > 4 then None
  else if T.is_simple name then
    match Hashtbl.find_opt (facts ctx) name with
    | Some v -> Some v
    | None -> (
      match Hashtbl.find_opt ctx.aliases name with
      | Some d -> lookup facts st ctx d (depth + 1)
      | None -> None)
  else
    let l2 = T.last2 name in
    match String.index_opt l2 '.' with
    | Some j -> (
      let m = String.sub l2 0 j in
      let x = String.sub l2 (j + 1) (String.length l2 - j - 1) in
      match Hashtbl.find_opt st.modmap m with
      | Some c -> lookup facts st c x (depth + 1)
      | None -> None)
    | None -> None

let lookup_const = lookup (fun c -> c.consts)
let lookup_len = lookup (fun c -> c.lens)

(* ---- named lock regions / iteration regions per function ------------ *)

(* (canonical lock name, start token, end token) — [with_lock sched mu
   (...)], [with_lock sched mu @@ fun ... -> <to end of item>], and
   explicit [lock sched mu] ... [unlock mu] pairs. *)
let lock_regions ctx (fn : Project.fn) =
  let a = ctx.toks and pm = ctx.pm in
  let regions = ref [] in
  let open_locks = ref [] in
  let atom_name at = match at with T.AName s -> Some s | _ -> None in
  let i = ref fn.Project.g_body in
  while !i < fn.Project.g_e do
    if is_ident_at a !i then begin
      let name, _, ni = T.qualified a !i in
      (match T.last2 name with
      | "Mutex.with_lock" ->
        let _sched, i1 = T.parse_atom a pm ni in
        let mu, i2 = T.parse_atom a pm i1 in
        let lname =
          match atom_name mu with Some s -> canon_lock ctx s | None -> "?with_lock"
        in
        if i2 < fn.Project.g_e && a.(i2).Lexer.text = "(" then
          regions := (lname, i2, if pm.(i2) >= 0 then pm.(i2) else fn.Project.g_e - 1) :: !regions
        else if i2 < fn.Project.g_e && a.(i2).Lexer.text = "@" then
          regions := (lname, i2, fn.Project.g_e - 1) :: !regions
      | "Mutex.lock" ->
        let _sched, i1 = T.parse_atom a pm ni in
        let mu, _ = T.parse_atom a pm i1 in
        let lname = match atom_name mu with Some s -> canon_lock ctx s | None -> "?lock" in
        open_locks := (lname, !i) :: !open_locks
      | "Mutex.unlock" -> (
        let mu, _ = T.parse_atom a pm ni in
        let lname = match atom_name mu with Some s -> canon_lock ctx s | None -> "" in
        match List.partition (fun (l, _) -> l = lname) !open_locks with
        | (l, s) :: _, rest ->
          regions := ((l, s, !i) : string * int * int) :: !regions;
          open_locks := rest
        | [], (l, s) :: rest ->
          regions := (l, s, !i) :: !regions;
          open_locks := rest
        | [], [] -> ())
      | _ -> ());
      i := ni
    end
    else incr i
  done;
  List.iter (fun (l, s) -> regions := (l, s, fn.Project.g_e - 1) :: !regions) !open_locks;
  !regions

(* Iteration regions [(start, end, length source)] for inline-closure
   iterations; the length is resolved lazily at each [Event.add] so
   that list bindings made earlier in the same body are visible.
   [for]/[while] bodies get an unknown length. *)
type len_src = LUnknown | LLit of int | LName of string

let iter_regions ctx (fn : Project.fn) =
  let a = ctx.toks and pm = ctx.pm in
  let regions = ref [] in
  let loop_stack = ref [] in
  let i = ref fn.Project.g_body in
  while !i < fn.Project.g_e do
    if is_ident_at a !i then begin
      let name, _, ni = T.qualified a !i in
      (if name = "for" || name = "while" then loop_stack := !i :: !loop_stack
       else if name = "done" then
         match !loop_stack with
         | s :: rest ->
           regions := (s, !i, LUnknown) :: !regions;
           loop_stack := rest
         | [] -> ()
       else if List.mem (T.last2 name) SL.iter_names then
         if ni < fn.Project.g_e && a.(ni).Lexer.text = "(" && pm.(ni) >= 0 then begin
           let close = pm.(ni) in
           let len =
             if close + 1 < fn.Project.g_e && a.(close + 1).Lexer.text = "[" then
               match list_literal_length a (close + 1) with
               | Some l -> LLit l
               | None -> LUnknown
             else
               match T.parse_atom a pm (close + 1) with
               | T.AName s, _ -> LName s
               | _ -> LUnknown
           in
           regions := (ni, close, len) :: !regions
         end);
      i := ni
    end
    else incr i
  done;
  !regions

(* ---- the per-function walk ------------------------------------------ *)

let walk st ctx (fn : Project.fn) =
  let a = ctx.toks and pm = ctx.pm in
  let env : (string, vfact) Hashtbl.t = Hashtbl.create 16 in
  List.iteri (fun i p -> if p <> "_" then Hashtbl.replace env p (VParam i)) (params fn);
  let quorums = ref [] in
  let lregions = lock_regions ctx fn in
  let iregions = iter_regions ctx fn in
  let suspends = ref false and wait_params = ref [] and acquires = ref [] in
  let findings = ref [] and edges = ref [] and setters = ref [] in
  let add_wait_param i = if not (List.mem i !wait_params) then wait_params := i :: !wait_params in
  let add_acquire l = if not (List.mem l !acquires) then acquires := l :: !acquires in
  List.iter (fun (l, _, _) -> if T.canonical l then add_acquire l) lregions;
  let held i = List.filter_map (fun (l, s, e) -> if s <= i && i <= e then Some l else None) lregions in
  let add_lock_edge src dst line =
    if T.canonical src && T.canonical dst && src <> dst then edges := (src, dst, line) :: !edges
  in
  (* intra-function nesting: acquiring B inside A's region orders A -> B *)
  List.iter
    (fun (lb, sb, _) ->
      List.iter
        (fun (la, sa, ea) -> if sa < sb && sb <= ea then add_lock_edge la lb a.(sb).Lexer.line)
        lregions)
    lregions;
  let set_field f k at = setters := (f, k, at) :: !setters in
  (* value fact of a name in value position (variable, module value,
     record-field access) *)
  let fact_of_name name =
    if T.is_simple name then
      match Hashtbl.find_opt env name with
      | Some f -> f
      | None -> (
        match Hashtbl.find_opt ctx.mvals name with
        | Some k -> VRemote (k, PLocal)
        | None -> (
          match Hashtbl.find_opt ctx.consts name with
          | Some v -> VInt v
          | None -> (
            match Hashtbl.find_opt ctx.lens name with
            | Some v -> VList v
            | None -> VNone)))
    else
      let first = List.hd (T.segments name) in
      if first = "" || not (first.[0] >= 'A' && first.[0] <= 'Z') then (
        (* record-field path x.f / x.M.f *)
        match Hashtbl.find_opt st.fields (T.last_segment name) with
        | Some (_, k, src) -> VRemote (k, PField src)
        | None -> VNone)
      else
        let l2 = T.last2 name in
        match String.index_opt l2 '.' with
        | Some j -> (
          let m = String.sub l2 0 j in
          let x = String.sub l2 (j + 1) (String.length l2 - j - 1) in
          match Hashtbl.find_opt st.modmap m with
          | Some c -> (
            match Hashtbl.find_opt c.mvals x with
            | Some k -> VRemote (k, if c.path = ctx.path then PLocal else PCross c.path)
            | None -> (
              match lookup_const st ctx name 0 with
              | Some v -> VInt v
              | None -> (
                match lookup_len st ctx name 0 with Some v -> VList v | None -> VNone)))
          | None -> VNone)
        | None -> VNone
  in
  (* value fact of an applied (or copied) head *)
  let head_fact h =
    let l2 = T.last2 h in
    match List.assoc_opt l2 SL.builtin_producers with
    | Some k -> VRemote (k, PLocal)
    | None ->
      (* same policy as the per-file pass: awaiting your own WAL
         durability is protocol-inherent, so [Disk.write]/[fsync]
         results are not remote-completion facts — even though the
         call graph could prove they carry one *)
      if List.mem l2 SL.local_constructors || l2 = "Disk.write" || l2 = "Disk.fsync" then VNone
      else (
        match callee st ctx h with
        | Some callee -> (
          match callee.ret with
          | [ Some k ] ->
            VRemote (k, if callee.file = ctx.path then PLocal else PCross callee.file)
          | _ -> VNone)
        | None -> fact_of_name h)
  in
  let atom_fact = function
    | T.AName s -> fact_of_name s
    | T.AParen (Some h) -> head_fact h
    | T.AParen None | T.AOther -> VNone
  in
  let emit_finding f = findings := f :: !findings in
  let emit_xmod line k p =
    let severity = match k with SL.Rpc -> Finding.Error | SL.Disk -> Finding.Warning in
    let where =
      match p with
      | PCross file -> Printf.sprintf "produced in %s" file
      | PField src -> Printf.sprintf "carried by a record field set in %s" src
      | PLocal -> "produced locally"
    in
    emit_finding
      (Finding.v ~rule:Finding.cross_module_red_wait ~severity
         ~loc:(Finding.File { file = ctx.path; line })
         (Printf.sprintf
            "wait on a bare %s completion %s: no per-file pass can see this; wrap it in \
             Event.quorum or race it against a timer via Event.or_ at the producer or here"
            (SL.kind_name k) where))
  in
  (* weight of one Event.add at token [i]: product of the lengths of the
     iteration regions covering it; None when any is unknown *)
  let add_weight i =
    List.fold_left
      (fun acc (s, e, len) ->
        if s <= i && i <= e then
          let l =
            match len with
            | LLit l -> Some l
            | LName nm -> ( match fact_of_name nm with VList l -> Some l | _ -> None)
            | LUnknown -> None
          in
          match (acc, l) with Some w, Some l -> Some (w * l) | _ -> None
        else acc)
      (Some 1) iregions
  in
  (* parse an [Event.quorum (Event.Count k)] argument following the head *)
  let quorum_cell line ni =
    let count =
      if ni < fn.Project.g_e && a.(ni).Lexer.text = "(" && pm.(ni) >= 0 then begin
        let close = pm.(ni) in
        let c = ref None in
        let j = ref (ni + 1) in
        while !c = None && !j < close do
          if a.(!j).Lexer.text = "Count" && !j + 1 < close then begin
            let k = ref (!j + 1) in
            while !k < close && a.(!k).Lexer.text = "(" do
              incr k
            done;
            (if !k < close then
               let t = a.(!k).Lexer.text in
               if Lexer.is_ident t then begin
                 let cn, _, _ = T.qualified a !k in
                 match fact_of_name cn with
                 | VInt v -> c := Some v
                 | _ -> c := Some (-1) (* Count of something unresolvable: give up *)
               end
               else match int_of_token t with Some v -> c := Some v | None -> c := Some (-1));
            j := close
          end
          else incr j
        done;
        match !c with Some v when v >= 0 -> Some v | _ -> None
      end
      else None
    in
    let qc = { q_line = line; q_count = count; q_adds = 0; q_unknown = false } in
    quorums := qc :: !quorums;
    qc
  in
  let mark_escaped at =
    match at with
    | T.AName s when T.is_simple s -> (
      match Hashtbl.find_opt env s with
      | Some (VQuorum qc) -> qc.q_unknown <- true
      | _ -> ())
    | _ -> ()
  in
  (* a resolvable call: propagate suspension/lock facts, check held
     locks, thread arguments into the callee's waited parameters *)
  let handle_call (callee : summary) line i ni =
    let held_here = held i in
    if callee.suspends then suspends := true;
    List.iter add_acquire callee.acquires;
    List.iter
      (fun h ->
        List.iter (fun acq -> add_lock_edge h acq line) callee.acquires;
        if callee.suspends then
          emit_finding
            (Finding.v ~rule:Finding.lock_across_call ~severity:Finding.Error
               ~loc:(Finding.File { file = ctx.path; line })
               (Printf.sprintf
                  "call to %s while holding %s: the callee (transitively) suspends on an \
                   event, so one slow firer blocks every contender on the lock (the \
                   RethinkDB hazard, paper §2, across a call boundary)"
                  callee.qname
                  (String.concat ", "
                     (List.map (fun l -> if T.canonical l then l else "a mutex") held_here)))))
      held_here;
    (* positional arguments, labels skipped; stop at the first non-atom *)
    let j = ref ni in
    let pos = ref 0 in
    let stop = ref false in
    while (not !stop) && !j < fn.Project.g_e && !pos < 8 do
      let t = a.(!j).Lexer.text in
      if t = "~" || t = "?" then begin
        j := !j + 2;
        if !j < fn.Project.g_e && a.(!j).Lexer.text = ":" then begin
          let at, j' = T.parse_atom a pm (!j + 1) in
          mark_escaped at;
          j := j'
        end
      end
      else begin
        let at, j' = T.parse_atom a pm !j in
        match at with
        | T.AOther -> stop := true
        | _ ->
          mark_escaped at;
          if List.mem !pos callee.wait_params then begin
            match atom_fact at with
            | VRemote (k, _) when callee.file <> ctx.path ->
              let severity = match k with SL.Rpc -> Finding.Error | SL.Disk -> Finding.Warning in
              emit_finding
                (Finding.v ~rule:Finding.cross_module_red_wait ~severity
                   ~loc:(Finding.File { file = ctx.path; line })
                   (Printf.sprintf
                      "bare %s completion passed to %s, which waits on its argument: a \
                       cross-module red wait split between caller and callee"
                      (SL.kind_name k) callee.qname))
            | VParam idx -> add_wait_param idx
            | _ -> ()
          end;
          incr pos;
          j := j'
      end
    done
  in
  let handle_binding pat rhs line eq =
    let bind1 name f =
      Hashtbl.remove env name;
      match f with VNone -> () | f -> Hashtbl.replace env name f
    in
    match (pat, rhs) with
    | T.PVar name, T.RHead (Some h) ->
      if T.last2 h = "Event.quorum" then begin
        (* the head token follows the [=]; find it to parse the arity *)
        let k = ref (eq + 1) in
        while !k < fn.Project.g_e && a.(!k).Lexer.text = "(" do
          incr k
        done;
        if is_ident_at a !k then begin
          let _, _, hend = T.qualified a !k in
          bind1 name (VQuorum (quorum_cell line hend))
        end
      end
      else if
        (* local list literals feed iteration lengths *)
        eq + 1 < fn.Project.g_e && a.(eq + 1).Lexer.text = "["
      then
        match list_literal_length a (eq + 1) with
        | Some l -> bind1 name (VList l)
        | None -> bind1 name VNone
      else bind1 name (head_fact h)
    | T.PVar name, T.RHead None ->
      if eq + 1 < fn.Project.g_e && a.(eq + 1).Lexer.text = "[" then (
        match list_literal_length a (eq + 1) with
        | Some l -> bind1 name (VList l)
        | None -> bind1 name VNone)
      else (
        match int_of_token a.(eq + 1).Lexer.text with
        | Some v when eq + 1 < fn.Project.g_e -> bind1 name (VInt v)
        | _ -> bind1 name VNone)
    | T.PVar name, T.RTuple _ -> bind1 name VNone
    | T.PTuple names, T.RTuple comps ->
      List.iteri
        (fun i name ->
          match List.nth_opt comps i with
          | Some (Some h) -> bind1 name (head_fact h)
          | _ -> bind1 name VNone)
        names
    | T.PTuple names, T.RHead (Some h) ->
      let comps =
        match callee st ctx h with
        | Some callee ->
          List.map
            (fun c ->
              match c with
              | Some k ->
                VRemote
                  (k, if callee.file = ctx.path then PLocal else PCross callee.file)
              | None -> VNone)
            callee.ret
        | None -> []
      in
      List.iteri
        (fun i name ->
          match List.nth_opt comps i with Some f -> bind1 name f | None -> bind1 name VNone)
        names
    | T.PTuple names, T.RHead None -> List.iter (fun n -> bind1 n VNone) names
  in
  (* record literal at token [i]: each [field = <head>] with a remote
     head registers a field fact *)
  let handle_record i =
    let depth = ref 0 in
    let j = ref i in
    let expect_field = ref true in
    let fin = ref false in
    while (not !fin) && !j < fn.Project.g_e do
      let t = a.(!j).Lexer.text in
      (match t with
      | "{" | "(" | "[" ->
        incr depth;
        if t = "{" && !j > i then expect_field := false
      | "}" | ")" | "]" ->
        decr depth;
        if !depth = 0 then fin := true
      | ";" when !depth = 1 -> expect_field := true
      | "=" when !depth = 1 ->
        (* token before [=] is the field, head after it is the value *)
        if !expect_field && !j > i + 1 && Lexer.is_ident a.(!j - 1).Lexer.text then begin
          let field = a.(!j - 1).Lexer.text in
          let k = ref (!j + 1) in
          while !k < fn.Project.g_e && a.(!k).Lexer.text = "(" do
            incr k
          done;
          if is_ident_at a !k then begin
            let h, _, _ = T.qualified a !k in
            match head_fact h with
            | VRemote (kk, _) -> set_field field kk !j
            | _ -> ()
          end
        end;
        expect_field := false
      | _ -> ());
      incr j
    done
  in
  (* ---- linear scan in program order ---- *)
  let i = ref fn.Project.g_body in
  while !i < fn.Project.g_e do
    (match T.binding_at a pm !i with
    | Some (pat, rhs, eq) -> handle_binding pat rhs a.(!i).Lexer.line eq
    | None -> ());
    if is_ident_at a !i then begin
      let name, line, ni = T.qualified a !i in
      (match T.last2 name with
      | "Sched.wait" | "Sched.wait_timeout" ->
        suspends := true;
        let _sched, i1 = T.parse_atom a pm ni in
        let ev, _ = T.parse_atom a pm i1 in
        (match ev with
        | T.AName s -> (
          match fact_of_name s with
          | VRemote (k, ((PCross _ | PField _) as p)) -> emit_xmod line k p
          | VParam idx -> add_wait_param idx
          | _ -> ())
        | T.AParen (Some h) -> (
          match head_fact h with
          | VRemote (k, ((PCross _ | PField _) as p)) -> emit_xmod line k p
          | _ -> ())
        | _ -> ())
      | "Condvar.wait" | "Condvar.wait_timeout" -> suspends := true
      | "Event.add" -> (
        let parent, _ = T.parse_atom a pm ni in
        match parent with
        | T.AName p when T.is_simple p -> (
          match Hashtbl.find_opt env p with
          | Some (VQuorum qc) -> (
            match add_weight !i with
            | Some w -> qc.q_adds <- qc.q_adds + w
            | None -> qc.q_unknown <- true)
          | _ -> ())
        | _ -> ())
      | "Mutex.lock" | "Mutex.unlock" | "Mutex.with_lock" -> ()
      | _ -> (
        match callee st ctx name with
        | Some callee -> handle_call callee line !i ni
        | None -> ()));
      (* field assignment [x.f <- <head>] *)
      (if (not (T.is_simple name)) && ni + 1 < fn.Project.g_e && a.(ni).Lexer.text = "<"
          && a.(ni + 1).Lexer.text = "-" then begin
         let k = ref (ni + 2) in
         while !k < fn.Project.g_e && a.(!k).Lexer.text = "(" do
           incr k
         done;
         if is_ident_at a !k then begin
           let h, _, _ = T.qualified a !k in
           match head_fact h with
           | VRemote (kk, _) -> set_field (T.last_segment name) kk !i
           | _ -> ()
         end
       end);
      i := ni
    end
    else begin
      if a.(!i).Lexer.text = "{" then handle_record !i;
      incr i
    end
  done;
  (* return shape: the last line of the body (or everything after the
     [=] for one-liners) — lone known variable, literal tuple, or an
     application of a producer *)
  let ret =
    match fn.Project.g_shape with
    | Project.Value | Project.Anon -> []
    | Project.Fun _ ->
      let e = fn.Project.g_e in
      let last_line = a.(e - 1).Lexer.line in
      let lo = ref (e - 1) in
      while !lo > fn.Project.g_body && a.(!lo - 1).Lexer.line = last_line do
        decr lo
      done;
      let start = if !lo <= fn.Project.g_body then fn.Project.g_body else !lo in
      if start >= e then []
      else if start = e - 1 && is_ident_at a start && T.is_simple a.(start).Lexer.text then (
        match Hashtbl.find_opt env a.(start).Lexer.text with
        | Some (VRemote (k, _)) -> [ Some k ]
        | Some (VQuorum qc) ->
          qc.q_unknown <- true;
          []
        | _ -> [])
      else if a.(start).Lexer.text = "(" && pm.(start) = e - 1 then (
        match T.tuple_components a pm start with
        | Some comps ->
          let facts =
            List.map
              (fun h ->
                match h with
                | Some h -> (
                  match head_fact h with VRemote (k, _) -> Some k | _ -> None)
                | None -> None)
              comps
          in
          if List.exists Option.is_some facts then facts else []
        | None -> [])
      else begin
        let k = ref start in
        while !k < e && not (is_ident_at a !k) do
          incr k
        done;
        if !k < e then (
          let h, _, _ = T.qualified a !k in
          match head_fact h with VRemote (kk, _) -> [ Some kk ] | _ -> [])
        else []
      end
  in
  (* quorum arity verdicts *)
  List.iter
    (fun qc ->
      match qc.q_count with
      | Some k when (not qc.q_unknown) && qc.q_adds > 0 && k > qc.q_adds ->
        emit_finding
          (Finding.v ~rule:Finding.quorum_arity_mismatch ~severity:Finding.Error
             ~loc:(Finding.File { file = ctx.path; line = qc.q_line })
             (Printf.sprintf
                "quorum requires Count %d but only %d child event(s) statically flow into \
                 it: it can never fire (constants resolved across modules)"
                k qc.q_adds))
      | _ -> ())
    !quorums;
  {
    w_sum =
      {
        qname = fn.Project.g_qname;
        file = ctx.path;
        ret;
        suspends = !suspends;
        wait_params = List.sort compare !wait_params;
        acquires = List.sort compare !acquires;
      };
    w_findings = !findings;
    w_edges = List.rev !edges;
    w_setters = List.rev !setters;
  }

(* ---- the whole-project pass ----------------------------------------- *)

let analyze p =
  let st =
    {
      project = p;
      sums = Hashtbl.create 256;
      modmap = Hashtbl.create 64;
      fields = Hashtbl.create 32;
    }
  in
  (* the items walked, functions (which get summaries) first, then value
     bindings and anonymous units (walked for findings only), each group
     in file order; and the indices of each qname's items *)
  let fns = ref [] and units = ref [] in
  List.iteri
    (fun idx fc ->
      let ctx = module_facts idx fc in
      if not (Hashtbl.mem st.modmap ctx.mdl) then Hashtbl.add st.modmap ctx.mdl ctx;
      List.iter
        (fun (fn : Project.fn) ->
          match fn.Project.g_shape with
          | Project.Fun _ ->
            if fn.Project.g_body < fn.Project.g_e then begin
              let q = fn.Project.g_qname in
              if not (Hashtbl.mem st.sums q) then
                Hashtbl.add st.sums q
                  { qname = q; file = ctx.path; ret = []; suspends = false; wait_params = [];
                    acquires = [] };
              fns := (ctx, fn) :: !fns
            end
          | Project.Value | Project.Anon -> units := (ctx, fn) :: !units)
        (Project.fns fc))
    (Project.files p);
  let items = Array.of_list (List.rev_append !fns (List.rev !units)) in
  let by_qname = Hashtbl.create 256 in
  Array.iteri (fun i (_, fn) -> Hashtbl.add by_qname fn.Project.g_qname i) items;
  (* a qname's transfer walks all its items and keeps each walk; callers
     look up only the summary of its first function, so only that one
     can change *)
  let walks = Array.make (Array.length items) None in
  let transfer q =
    let idxs = List.rev (Hashtbl.find_all by_qname q) in
    List.fold_left
      (fun changed i ->
        let ctx, fn = items.(i) in
        let w = walk st ctx fn in
        walks.(i) <- Some w;
        match Hashtbl.find_opt st.sums q with
        | Some s when i = List.hd idxs && s <> w.w_sum ->
          Hashtbl.replace st.sums q w.w_sum;
          true
        | _ -> changed)
      false idxs
  in
  let walked f =
    Array.iteri (fun i w -> match w with Some w -> f (fst items.(i)) w | None -> ()) walks
  in
  (* record fields carry facts between functions the call graph does not
     link: solve, then let each field keep its first setter in file
     order (over every walk so far), and solve again while that table
     changes. Each change adds a field or moves one to an earlier
     setter, so this ends. *)
  let rec solve_fields () =
    Project.solve p transfer;
    let grown = ref false in
    walked (fun ctx w ->
        List.iter
          (fun (f, k, at) ->
            match Hashtbl.find_opt st.fields f with
            | Some (first, _, _) when first <= (ctx.idx, at) -> ()
            | _ ->
              Hashtbl.replace st.fields f ((ctx.idx, at), k, ctx.path);
              grown := true)
          w.w_setters);
    if !grown then solve_fields ()
  in
  solve_fields ();
  (* findings and the lock-order graph from the final walks, replayed
     in item order so each edge keeps its first witness *)
  let lock_graph = Digraph.create () in
  let findings = ref [] in
  walked (fun ctx w ->
      List.iter
        (fun (src, dst, line) ->
          Digraph.add_edge lock_graph ~src ~dst ~witness:(ctx.path, line))
        w.w_edges;
      findings := List.rev_append w.w_findings !findings);
  let emit f = findings := f :: !findings in
  (* lock-order cycles *)
  List.iter
    (fun (path, edges) ->
      match edges with
      | [] -> ()
      | { Digraph.witness = file, line; _ } :: _ ->
        let loc = Finding.File { file; line } in
        let sites =
          String.concat "; "
            (List.map
               (fun { Digraph.src; dst; witness = file, line } ->
                 Printf.sprintf "%s -> %s at %s:%d" src dst file line)
               edges)
        in
        emit
          (Finding.v ~rule:Finding.lock_order_cycle ~severity:Finding.Error ~loc
             (Printf.sprintf
                "mutex acquisition-order cycle %s: two coroutines taking opposite ends \
                 deadlock outright — and under fail-slow faults even the non-deadlocked \
                 interleavings convoy (acquisition sites: %s)"
                (String.concat " -> " path) sites)))
    (Digraph.cycles lock_graph);
  Project.apply_pragmas (Project.files p) !findings
  |> List.sort_uniq (fun a b ->
         let c = Finding.by_location a b in
         if c <> 0 then c else compare a b)

let analyze_sources sources = analyze (Project.load sources)
let analyze_files paths = analyze (Project.load_files paths)
