(* The analysis front end: every source is read and scanned once, and the
   whole-project model the growth, effect and propagation analyses share
   is built on first use, so the per-file passes never pay for it. *)

type shape = Anon | Value | Fun of string list

type fn = {
  g_qname : string;  (* Module.name; "Module.<unit:L>" for anonymous items *)
  g_line : int;
  g_b : int;  (* first token of the item (the [let]/[and]) *)
  g_e : int;  (* exclusive *)
  g_shape : shape;
  g_body : int;  (* first token after the depth-0 [=]; [g_e] when there is none *)
  g_rhs : int;  (* [g_body], past a leading [lazy] *)
}

type file = {
  fc_path : string;
  fc_mdl : string;
  fc_toks : Lexer.token array;
  fc_pm : int array;
  fc_pragmas : Lexer.pragma list;
  fc_items : (int * int) list;  (* top-level item spans [b, e) *)
  fc_defs : (fn list * (string, unit) Hashtbl.t) Lazy.t;
      (* let-items, and the module-level containers among them *)
}

type roots = {
  roots : (string, string) Hashtbl.t;  (* root qname -> why it is a root *)
  reach : (string, (string, unit) Hashtbl.t) Hashtbl.t;  (* root -> reachable set *)
}

type t = {
  files : file list;
  defs : (string, unit) Hashtbl.t Lazy.t;  (* every defined qname *)
  calls : (string, string list) Hashtbl.t Lazy.t;  (* qname -> resolved callees *)
  model : roots Lazy.t;
}

(* ---- reading and scanning -------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let source_files roots =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list |> List.sort compare
      |> List.fold_left
           (fun acc entry ->
             if entry = "_build" || entry = ".git" then acc
             else walk acc (Filename.concat path entry))
           acc
    else if Filename.check_suffix path ".ml" && not (Filename.check_suffix path ".pp.ml") then
      path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] roots)

let module_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let store_heads = [ "Queue.create"; "Hashtbl.create"; "Buffer.create"; "Rlog.create" ]

(* The first [=] at bracket depth 0 in [k, e), or [e]. *)
let depth0_eq (a : Lexer.token array) k e =
  let rec go depth k =
    if k >= e then e
    else
      match a.(k).Lexer.text with
      | "(" | "[" | "{" -> go (depth + 1) (k + 1)
      | ")" | "]" | "}" -> go (depth - 1) (k + 1)
      | "=" when depth = 0 -> k
      | _ -> go depth (k + 1)
  in
  go 0 k

(* Positional parameters of a named item whose name is at [j]: a
   parenthesised pattern counts as ["_"], labelled parameters ([~x],
   [?x], [~x:pat], [?(x = default)]) are skipped, and a return
   annotation runs to the depth-0 [=]. Returns the parameters and the
   index of that [=]. *)
let parse_params (a : Lexer.token array) pm j e =
  let rec go params k =
    if k >= e then (List.rev params, e)
    else
      let t = a.(k).Lexer.text in
      if t = "=" then (List.rev params, k)
      else if t = "(" then go ("_" :: params) (if pm.(k) >= 0 then pm.(k) + 1 else e)
      else if (t = "~" || t = "?") && k + 1 < e && a.(k + 1).Lexer.text = "(" && pm.(k + 1) >= 0
      then go params (pm.(k + 1) + 1)
      else if t = "~" || t = "?" then
        let k = k + 2 in
        if k < e && a.(k).Lexer.text = ":" then go params (snd (Tokens.parse_atom a pm (k + 1)))
        else go params k
      else if t = ":" then (List.rev params, depth0_eq a k e)
      else if Lexer.is_ident t then go (t :: params) (k + 1)
      else go params (k + 1)
  in
  go [] (j + 1)

(* One top-level [let]/[and] item [b, e): [let () = ...] and other
   nameless patterns are [Anon]; a name followed by [=] or [: ty =] is a
   [Value]; anything else names a function. *)
let parse_item mdl (a : Lexer.token array) pm (b, e) =
  let j = if a.(b + 1).Lexer.text = "rec" && b + 2 < e then b + 2 else b + 1 in
  let line = a.(b).Lexer.line in
  let qname, shape, eq =
    if Lexer.is_ident a.(j).Lexer.text then
      let qname = mdl ^ "." ^ a.(j).Lexer.text in
      match if j + 1 < e then a.(j + 1).Lexer.text else "" with
      | "=" -> (qname, Value, j + 1)
      | ":" -> (qname, Value, depth0_eq a (j + 2) e)
      | _ ->
        let params, eq = parse_params a pm j e in
        (qname, Fun params, eq)
    else
      let anon = Printf.sprintf "%s.<unit:%d>" mdl line in
      if a.(j).Lexer.text = "(" && pm.(j) >= 0 && pm.(j) + 1 < e && a.(pm.(j) + 1).Lexer.text = "="
      then (anon, Anon, pm.(j) + 1)
      else (anon, Anon, e)
  in
  let body = min e (eq + 1) in
  let rhs = if body < e && a.(body).Lexer.text = "lazy" then body + 1 else body in
  { g_qname = qname; g_line = line; g_b = b; g_e = e; g_shape = shape; g_body = body; g_rhs = rhs }

let head_at (a : Lexer.token array) f =
  if f.g_rhs < f.g_e && Lexer.is_ident a.(f.g_rhs).Lexer.text then
    let h, _, _ = Tokens.qualified a f.g_rhs in
    Some h
  else None

let parse_defs mdl a pm items =
  let fns =
    List.filter_map
      (fun (b, e) ->
        let kw = a.(b).Lexer.text in
        if (kw = "let" || kw = "and") && e > b + 1 then Some (parse_item mdl a pm (b, e)) else None)
      items
  in
  let stores = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match (f.g_shape, head_at a f) with
      | Value, Some h when List.mem (Tokens.last2 h) store_heads ->
        Hashtbl.replace stores (Tokens.last_segment f.g_qname) ()
      | _ -> ())
    fns;
  (fns, stores)

let scan (path, src) =
  let { Lexer.tokens = a; pragmas } = Lexer.scan src in
  let n = Array.length a in
  let rec pairs = function
    | b :: rest -> (b, match rest with b2 :: _ -> b2 | [] -> n) :: pairs rest
    | [] -> []
  in
  let mdl = module_of_path path in
  let items = pairs (Tokens.boundaries a) in
  let pm = Tokens.paren_matches a in
  {
    fc_path = path;
    fc_mdl = mdl;
    fc_toks = a;
    fc_pm = pm;
    fc_pragmas = pragmas;
    fc_items = items;
    fc_defs = lazy (parse_defs mdl a pm items);
  }

let fns fc = fst (Lazy.force fc.fc_defs)
let stores fc = snd (Lazy.force fc.fc_defs)
let rhs_head fc f = head_at fc.fc_toks f

(* ---- call edges and remote-triggered roots --------------------------- *)

(* Heads whose closure argument runs in a remote- or callback-triggered
   context: the RPC/net delivery path, a spawned coroutine (fed by
   remote traffic), or an event-completion callback. *)
let trigger_heads =
  [
    ("Rpc.serve", "RPC handler");
    ("Net.register", "net delivery handler");
    ("Sched.spawn", "spawned coroutine");
    ("Sched.spawn_here", "spawned coroutine");
    ("Node.spawn", "spawned coroutine");
    ("Event.on_fire", "completion callback");
    ("Event.on_abandon", "abandon callback");
  ]

(* A simple name resolves in its own module, a dotted one on its last
   two segments. *)
let resolve_in defs ~mdl name =
  let q = if Tokens.is_simple name then mdl ^ "." ^ name else Tokens.last2 name in
  if Hashtbl.mem defs q then Some q else None

let build_defs files =
  let defs = Hashtbl.create 256 in
  List.iter (fun fc -> List.iter (fun f -> Hashtbl.replace defs f.g_qname ()) (fns fc)) files;
  defs

(* Call edges: any resolvable name mentioned in a body is an edge —
   closures are treated as invoked, so a pump thunk stored in a record
   still connects its installer to the drain. A body naming its own item
   (recursion) is a self-edge, the item's own binding name is not; items
   sharing a qname share one edge set. *)
let build_calls files defs =
  let calls = Hashtbl.create 256 in
  List.iter
    (fun fc ->
      let a = fc.fc_toks in
      List.iter
        (fun f ->
          let callees = ref (try Hashtbl.find calls f.g_qname with Not_found -> []) in
          let i = ref f.g_b in
          while !i < f.g_e do
            if Lexer.is_ident a.(!i).Lexer.text then begin
              let name, _, ni = Tokens.qualified a !i in
              (match resolve_in defs ~mdl:fc.fc_mdl name with
              | Some q when q <> f.g_qname || !i >= f.g_body -> callees := q :: !callees
              | _ -> ());
              i := ni
            end
            else incr i
          done;
          Hashtbl.replace calls f.g_qname (List.sort_uniq compare !callees))
        (fns fc))
    files;
  calls

let build_roots files defs calls =
  let resolve = resolve_in defs in
  let m = { roots = Hashtbl.create 32; reach = Hashtbl.create 32 } in
  (* roots: resolvable names inside the first [(fun ...)] closure
     following a trigger head ([~handler:(fun ...)], spawn thunks,
     completion callbacks) *)
  List.iter
    (fun fc ->
      let a = fc.fc_toks in
      let n = Array.length a in
      let i = ref 0 in
      while !i < n do
        if Lexer.is_ident a.(!i).Lexer.text then begin
          let name, _, ni = Tokens.qualified a !i in
          (match List.assoc_opt (Tokens.last2 name) trigger_heads with
          | Some why ->
            (* find the first [(fun] within the next tokens *)
            let j = ref ni in
            let found = ref false in
            while (not !found) && !j < min n (ni + 100) do
              if
                a.(!j).Lexer.text = "("
                && !j + 1 < n
                && a.(!j + 1).Lexer.text = "fun"
                && fc.fc_pm.(!j) >= 0
              then begin
                found := true;
                let close = fc.fc_pm.(!j) in
                let k = ref (!j + 2) in
                while !k < close do
                  if Lexer.is_ident a.(!k).Lexer.text then begin
                    let cname, _, kn = Tokens.qualified a !k in
                    (match resolve ~mdl:fc.fc_mdl cname with
                    | Some q -> if not (Hashtbl.mem m.roots q) then Hashtbl.add m.roots q why
                    | None -> ());
                    k := kn
                  end
                  else incr k
                done
              end
              else incr j
            done
          | None -> ());
          i := ni
        end
        else incr i
      done)
    files;
  (* reachability closure per root *)
  Hashtbl.iter
    (fun root _ ->
      let seen = Hashtbl.create 32 in
      let rec go q =
        if not (Hashtbl.mem seen q) then begin
          Hashtbl.add seen q ();
          match Hashtbl.find_opt calls q with
          | Some cs -> List.iter go cs
          | None -> ()
        end
      in
      go root;
      Hashtbl.replace m.reach root seen)
    m.roots;
  m

let load sources =
  let files = List.map scan sources in
  let defs = lazy (build_defs files) in
  let calls = lazy (build_calls files (Lazy.force defs)) in
  { files; defs; calls; model = lazy (build_roots files (Lazy.force defs) (Lazy.force calls)) }

let load_files paths = load (List.map (fun p -> (p, read_file p)) paths)

(* ---- queries --------------------------------------------------------- *)

let files p = p.files
let resolve p ~mdl name = resolve_in (Lazy.force p.defs) ~mdl name
let callees p q = try Hashtbl.find (Lazy.force p.calls) q with Not_found -> []
let reachable p root = Hashtbl.find_opt (Lazy.force p.model).reach root

let remote_reachable p qname =
  Hashtbl.fold (fun _ set acc -> acc || Hashtbl.mem set qname) (Lazy.force p.model).reach false

let roots_reaching p qname =
  let m = Lazy.force p.model in
  Hashtbl.fold
    (fun root set acc -> if Hashtbl.mem set qname then (root, Hashtbl.find m.roots root) :: acc else acc)
    m.reach []
  |> List.sort compare

(* ---- the interprocedural solver ------------------------------------- *)

(* Callees-first over the call graph's components; a cyclic one is swept
   until unchanged, and the sweep bound (see the interface) turns a
   transfer that never settles into an error instead of a cut. *)
let solve p transfer =
  let calls = Lazy.force p.calls in
  let succ q = try Hashtbl.find calls q with Not_found -> [] in
  let nodes = List.sort compare (Hashtbl.fold (fun q _ acc -> q :: acc) calls []) in
  List.iter
    (function
      | [ q ] when not (List.mem q (succ q)) -> ignore (transfer q)
      | comp ->
        let comp = List.sort compare comp in
        let limit = 8 * (List.length comp + 1) in
        let rec sweep round =
          if round > limit then
            failwith
              (Printf.sprintf "Project.solve: component {%s} still changing after %d sweeps"
                 (String.concat ", " comp) limit)
          else if List.fold_left (fun changed q -> transfer q || changed) false comp then
            sweep (round + 1)
        in
        sweep 1)
    (Digraph.sccs nodes succ)

(* ---- pragmas --------------------------------------------------------- *)

(* A pragma on lines L-3..L allows a finding at L. *)
let allowed files ~file ~rule line =
  match List.find_opt (fun fc -> fc.fc_path = file) files with
  | None -> false
  | Some fc ->
    List.exists
      (fun (p : Lexer.pragma) ->
        p.Lexer.p_line <= line && p.Lexer.p_line >= line - 3 && List.mem rule p.Lexer.p_rules)
      fc.fc_pragmas

let apply_pragmas files findings =
  List.map
    (fun (f : Finding.t) ->
      match f.Finding.loc with
      | Finding.File { file; line } when allowed files ~file ~rule:f.Finding.rule line ->
        { f with Finding.allowed = true }
      | _ -> f)
    findings
