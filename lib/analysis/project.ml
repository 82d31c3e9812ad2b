(* The analysis front end: every source is read and scanned once, and the
   whole-project model the growth, effect and propagation analyses share
   is built on first use, so the per-file passes never pay for it. *)

type fn = {
  g_qname : string;  (* Module.name; "Module.<unit:L>" for anonymous items *)
  g_line : int;
  g_b : int;  (* first token of the item (the [let]) *)
  g_e : int;  (* exclusive *)
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

type model = {
  defs : (string, unit) Hashtbl.t;  (* every defined qname *)
  calls : (string, string list) Hashtbl.t;  (* qname -> resolved callees *)
  roots : (string, string) Hashtbl.t;  (* root qname -> why it is a root *)
  reach : (string, (string, unit) Hashtbl.t) Hashtbl.t;  (* root -> reachable set *)
}

type t = { files : file list; model : model Lazy.t }

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

let parse_defs mdl (a : Lexer.token array) items =
  let stores = Hashtbl.create 8 in
  let fns = ref [] in
  List.iter
    (fun (b, e) ->
      let kw = a.(b).Lexer.text in
      if (kw = "let" || kw = "and") && e > b + 1 then begin
        let j = if a.(b + 1).Lexer.text = "rec" && b + 2 < e then b + 2 else b + 1 in
        let line = a.(b).Lexer.line in
        let qname =
          if j < e && Lexer.is_ident a.(j).Lexer.text then begin
            (* module-level store? [let name = Queue.create ...] *)
            (if j + 2 < e && a.(j + 1).Lexer.text = "=" && Lexer.is_ident a.(j + 2).Lexer.text
             then
               let h, _, _ = Tokens.qualified a (j + 2) in
               if List.mem (Tokens.last2 h) store_heads then
                 Hashtbl.replace stores a.(j).Lexer.text ());
            mdl ^ "." ^ a.(j).Lexer.text
          end
          else Printf.sprintf "%s.<unit:%d>" mdl line
        in
        fns := { g_qname = qname; g_line = line; g_b = b; g_e = e } :: !fns
      end)
    items;
  (List.rev !fns, stores)

let scan (path, src) =
  let { Lexer.tokens = a; pragmas } = Lexer.scan src in
  let n = Array.length a in
  let rec pairs = function
    | b :: rest -> (b, match rest with b2 :: _ -> b2 | [] -> n) :: pairs rest
    | [] -> []
  in
  let mdl = module_of_path path in
  let items = pairs (Tokens.boundaries a) in
  {
    fc_path = path;
    fc_mdl = mdl;
    fc_toks = a;
    fc_pm = Tokens.paren_matches a;
    fc_pragmas = pragmas;
    fc_items = items;
    fc_defs = lazy (parse_defs mdl a items);
  }

let fns fc = fst (Lazy.force fc.fc_defs)
let stores fc = snd (Lazy.force fc.fc_defs)

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

let resolve defs ~mdl name =
  let q = if Tokens.is_simple name then mdl ^ "." ^ name else Tokens.last2 name in
  if Hashtbl.mem defs q then Some q else None

let build_model files =
  let defs = Hashtbl.create 256 in
  List.iter (fun fc -> List.iter (fun f -> Hashtbl.replace defs f.g_qname ()) (fns fc)) files;
  let m = { defs; calls = Hashtbl.create 256; roots = Hashtbl.create 32; reach = Hashtbl.create 32 } in
  (* call edges: any resolvable name mentioned in a body is an edge —
     closures are treated as invoked, so a pump thunk stored in a record
     still connects its installer to the drain *)
  List.iter
    (fun fc ->
      let a = fc.fc_toks in
      List.iter
        (fun f ->
          let callees = ref [] in
          let i = ref f.g_b in
          while !i < f.g_e do
            if Lexer.is_ident a.(!i).Lexer.text then begin
              let name, _, ni = Tokens.qualified a !i in
              (match resolve defs ~mdl:fc.fc_mdl name with
              | Some q when q <> f.g_qname -> callees := q :: !callees
              | _ -> ());
              i := ni
            end
            else incr i
          done;
          Hashtbl.replace m.calls f.g_qname (List.sort_uniq compare !callees))
        (fns fc))
    files;
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
                    (match resolve defs ~mdl:fc.fc_mdl cname with
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
          match Hashtbl.find_opt m.calls q with
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
  { files; model = lazy (build_model files) }

let load_files paths = load (List.map (fun p -> (p, read_file p)) paths)

(* ---- queries --------------------------------------------------------- *)

let files p = p.files
let callees p q = try Hashtbl.find (Lazy.force p.model).calls q with Not_found -> []
let reachable p root = Hashtbl.find_opt (Lazy.force p.model).reach root

let remote_reachable p qname =
  Hashtbl.fold (fun _ set acc -> acc || Hashtbl.mem set qname) (Lazy.force p.model).reach false

let roots_reaching p qname =
  let m = Lazy.force p.model in
  Hashtbl.fold
    (fun root set acc -> if Hashtbl.mem set qname then (root, Hashtbl.find m.roots root) :: acc else acc)
    m.reach []
  |> List.sort compare

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
