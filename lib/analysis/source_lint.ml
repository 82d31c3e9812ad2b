open Tokens

type kind = Rpc | Disk

(* Qualified names (matched on their last two segments) that construct a
   remote completion event. [Disk.write]/[Disk.fsync] are deliberately
   absent: a wait on one's own WAL durability is protocol-inherent,
   whereas a blocking [Disk.read] on the request path is the TiDB
   anti-pattern the paper describes (§2). *)
let builtin_producers =
  [
    ("Event.rpc_completion", Rpc);
    ("Rpc.event", Rpc);
    ("Event.disk_completion", Disk);
    ("Disk.read", Disk);
  ]

(* Heads that construct a local or compound event: binding one of these
   over a name cancels any earlier remote-completion fact about it. *)
let local_constructors =
  [ "Event.quorum"; "Event.or_"; "Event.signal"; "Event.timer_kind"; "Sched.timer" ]

let iter_names =
  [ "List.iter"; "List.iteri"; "List.map"; "List.mapi"; "Array.iter"; "Array.iteri" ]

let kind_name = function Rpc -> "rpc" | Disk -> "disk"

let next_boundary bounds i =
  match List.find_opt (fun b -> b > i) bounds with
  | Some b -> b
  | None -> max_int

(* ---- per-file environment ------------------------------------------- *)

type env = {
  remote : (string, kind) Hashtbl.t;  (* vars bound to a bare remote completion *)
  producers : (string, kind option list) Hashtbl.t;
      (* local fns returning one: a 1-element list for a scalar return,
         one slot per component for a tuple return *)
}

let scalar = function [ Some k ] -> Some k | _ -> None

(* Component facts of a right-hand-side head: builtin producers are
   scalar by definition; local names resolve through either table. *)
let components_of_head env h =
  if is_simple h then
    match Hashtbl.find_opt env.producers h with
    | Some l -> Some l
    | None -> (
      match Hashtbl.find_opt env.remote h with Some k -> Some [ Some k ] | None -> None)
  else
    match List.assoc_opt (last2 h) builtin_producers with
    | Some k -> Some [ Some k ]
    | None -> None

let resolve_head env h = Option.bind (components_of_head env h) (fun l -> scalar l)
let record_binding1 env ~and_line name head line =
  Hashtbl.remove env.remote name;
  Hashtbl.remove and_line name;
  match head with
  | None -> ()
  | Some h -> (
    let l2 = last2 h in
    match List.assoc_opt l2 builtin_producers with
    | Some k -> Hashtbl.replace env.remote name k
    | None ->
      if is_simple h then (
        match Hashtbl.find_opt env.producers h with
        | Some l -> ( match scalar l with Some k -> Hashtbl.replace env.remote name k | None -> ())
        | None -> ())
      else if l2 = "Event.and_" then Hashtbl.replace and_line name line
      else if List.mem l2 local_constructors then ())

(* Assign facts under a binding: positional for tuple patterns, whether
   the right-hand side is a literal tuple or a call to a local function
   whose tuple return shape was learnt. *)
let record_binding env ~and_line pat rhs line =
  let comp_fact head = Option.bind head (fun h -> resolve_head env h) in
  match (pat, rhs) with
  | PVar name, RHead head -> record_binding1 env ~and_line name head line
  | PVar name, RTuple _ ->
    (* a literal tuple is not itself an event *)
    Hashtbl.remove env.remote name;
    Hashtbl.remove and_line name
  | PTuple names, RTuple comps ->
    List.iteri
      (fun i name ->
        Hashtbl.remove env.remote name;
        Hashtbl.remove and_line name;
        match List.nth_opt comps i with
        | Some head -> (
          match comp_fact head with
          | Some k -> Hashtbl.replace env.remote name k
          | None -> ())
        | None -> ())
      names
  | PTuple names, RHead head ->
    let comps =
      match head with
      | Some h when is_simple h -> (
        match Hashtbl.find_opt env.producers h with Some l -> l | None -> [])
      | _ -> []
    in
    List.iteri
      (fun i name ->
        Hashtbl.remove env.remote name;
        Hashtbl.remove and_line name;
        match List.nth_opt comps i with
        | Some (Some k) -> Hashtbl.replace env.remote name k
        | _ -> ())
      names

(* Learn which top-level functions return a remote completion: the
   binding's last line is either a lone variable known to be remote, an
   application of a producer, or a literal tuple whose components are
   learnt positionally. Iterated with the binding pass so producer
   facts and variable facts can feed each other. *)
let learn_producers (a : Lexer.token array) pm items env =
  List.iter
    (fun (b, e) ->
      if a.(b).Lexer.text = "let" && e > b + 1 then begin
        let j = if a.(b + 1).Lexer.text = "rec" && b + 2 < e then b + 2 else b + 1 in
        if j < e && Lexer.is_ident a.(j).Lexer.text then begin
          let fname = a.(j).Lexer.text in
          let last_line = a.(e - 1).Lexer.line in
          let lo = ref (e - 1) in
          while !lo > b && a.(!lo - 1).Lexer.line = last_line do
            decr lo
          done;
          (* for one-line bindings, start after the [=] *)
          let start =
            if !lo <= j then begin
              let k = ref j in
              while !k < e && a.(!k).Lexer.text <> "=" do
                incr k
              done;
              !k + 1
            end
            else !lo
          in
          if start < e then begin
            let learned =
              if start = e - 1 && Lexer.is_ident a.(start).Lexer.text
                 && is_simple a.(start).Lexer.text then
                match Hashtbl.find_opt env.remote a.(start).Lexer.text with
                | Some k -> Some [ Some k ]
                | None -> None
              else
                match
                  if a.(start).Lexer.text = "(" && pm.(start) = e - 1 then
                    tuple_components a pm start
                  else None
                with
                | Some comps ->
                  let facts = List.map (fun h -> Option.bind h (resolve_head env)) comps in
                  if List.exists Option.is_some facts then Some facts else None
                | None -> begin
                  let k = ref start in
                  while !k < e && not (Lexer.is_ident a.(!k).Lexer.text) do
                    incr k
                  done;
                  if !k < e then
                    let h, _, _ = qualified a !k in
                    components_of_head env h
                  else None
                end
            in
            match learned with
            | Some l -> Hashtbl.replace env.producers fname l
            | None -> ()
          end
        end
      end)
    items

(* ---- locked / iterating regions ------------------------------------- *)

let lock_regions (a : Lexer.token array) pm bounds =
  let n = Array.length a in
  let bset = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace bset b ()) bounds;
  let regions = ref [] in
  let open_lock = ref None in
  let i = ref 0 in
  while !i < n do
    (if Hashtbl.mem bset !i then
       match !open_lock with
       | Some s ->
         regions := (s, !i - 1) :: !regions;
         open_lock := None
       | None -> ());
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, _, ni = qualified a !i in
      (match last2 name with
      | "Mutex.with_lock" ->
        let _, i1 = parse_atom a pm ni in
        let _, i2 = parse_atom a pm i1 in
        if i2 < n && a.(i2).Lexer.text = "(" then
          regions := (i2, if pm.(i2) >= 0 then pm.(i2) else n - 1) :: !regions
        else if i2 < n && a.(i2).Lexer.text = "@" then begin
          let e = next_boundary bounds i2 in
          regions := (i2, min (e - 1) (n - 1)) :: !regions
        end
      | "Mutex.lock" -> if !open_lock = None then open_lock := Some !i
      | "Mutex.unlock" -> (
        match !open_lock with
        | Some s ->
          regions := (s, !i) :: !regions;
          open_lock := None
        | None -> ())
      | _ -> ());
      i := ni
    end
    else incr i
  done;
  (match !open_lock with Some s -> regions := (s, n - 1) :: !regions | None -> ());
  !regions

let iter_regions (a : Lexer.token array) pm =
  let n = Array.length a in
  let regions = ref [] in
  let for_stack = ref [] in
  let i = ref 0 in
  while !i < n do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, _, ni = qualified a !i in
      (if name = "for" || name = "while" then for_stack := !i :: !for_stack
       else if name = "done" then
         match !for_stack with
         | s :: rest ->
           regions := (s, !i) :: !regions;
           for_stack := rest
         | [] -> ()
       else if List.mem (last2 name) iter_names then
         if ni < n && a.(ni).Lexer.text = "(" then
           regions := (ni, if pm.(ni) >= 0 then pm.(ni) else n - 1) :: !regions);
      i := ni
    end
    else incr i
  done;
  !regions

let in_region regions i = List.exists (fun (s, e) -> s <= i && i <= e) regions

(* ---- the lint proper ------------------------------------------------ *)

let lint (fc : Project.file) =
  let a = fc.Project.fc_toks in
  let n = Array.length a in
  if n = 0 then []
  else begin
    let path = fc.Project.fc_path in
    let pm = fc.Project.fc_pm in
    let items = fc.Project.fc_items in
    let env = { remote = Hashtbl.create 16; producers = Hashtbl.create 16 } in
    let and_line = Hashtbl.create 8 in
    (* fixpoint: variable facts and producer facts feed each other *)
    for _ = 1 to 2 do
      Array.iteri
        (fun i _ ->
          match binding_at a pm i with
          | Some (pat, rhs, _) -> record_binding env ~and_line pat rhs a.(i).Lexer.line
          | None -> ())
        a;
      learn_producers a pm items env
    done;
    Hashtbl.reset env.remote;
    Hashtbl.reset and_line;
    let locked = lock_regions a pm (List.map fst items) in
    let iters = iter_regions a pm in
    let findings = ref [] in
    let emit ~rule ~severity ~line message =
      findings :=
        Finding.v ~rule ~severity ~loc:(Finding.File { file = path; line }) message
        :: !findings
    in
    let and_adds = Hashtbl.create 8 in
    let resolve_atom = function
      | AName s when is_simple s -> Hashtbl.find_opt env.remote s
      | AName _ -> None
      | AParen (Some h) -> resolve_head env h
      | AParen None | AOther -> None
    in
    (* linear scan in program order so variable shadowing is respected *)
    let i = ref 0 in
    while !i < n do
      (match binding_at a pm !i with
      | Some (pat, rhs, _) -> record_binding env ~and_line pat rhs a.(!i).Lexer.line
      | None -> ());
      if Lexer.is_ident a.(!i).Lexer.text then begin
        let name, line, ni = qualified a !i in
        (match last2 name with
        | ("Sched.wait" | "Sched.wait_timeout") as w ->
          if in_region locked !i then
            emit ~rule:Finding.lock_across_wait ~severity:Finding.Error ~line
              "suspension point while a Depfast.Mutex is held: a single slow \
               firer blocks every coroutine contending on the lock (the \
               RethinkDB hazard, paper §2)";
          let _sched, i1 = parse_atom a pm ni in
          let ev, _ = parse_atom a pm i1 in
          (match resolve_atom ev with
          | Some k ->
            let severity = match k with Rpc -> Finding.Error | Disk -> Finding.Warning in
            emit ~rule:Finding.red_wait ~severity ~line
              (Printf.sprintf
                 "wait on a single %s completion outside a quorum/or_ wrapper: \
                  that peer stalls this coroutine; wrap it in Event.quorum or \
                  race it against Sched.timer via Event.or_"
                 (kind_name k));
            if w = "Sched.wait" && k = Rpc then
              emit ~rule:Finding.unbounded_wait ~severity:Finding.Warning ~line
                "untimed wait on a remote completion with no or_/timer escape: \
                 use Sched.wait_timeout or add a timer sibling via Event.or_"
          | None -> ())
        | "Condvar.wait" | "Condvar.wait_timeout" ->
          if in_region locked !i then
            emit ~rule:Finding.lock_across_wait ~severity:Finding.Error ~line
              "condition wait while a Depfast.Mutex is held: Depfast.Condvar \
               does not release the mutex, so this deadlocks or serialises \
               every contender behind one slow firer"
        | "Event.add" -> (
          let parent, i1 = parse_atom a pm ni in
          match parent with
          | AName p when is_simple p && Hashtbl.mem and_line p ->
            (* expect [~child:<atom>] *)
            if
              i1 + 2 < n
              && a.(i1).Lexer.text = "~"
              && a.(i1 + 1).Lexer.text = "child"
              && a.(i1 + 2).Lexer.text = ":"
            then begin
              let child, _ = parse_atom a pm (i1 + 3) in
              if resolve_atom child = Some Rpc then begin
                let w = if in_region iters !i then 2 else 1 in
                let key = (p, Hashtbl.find and_line p) in
                let cur = try Hashtbl.find and_adds key with Not_found -> 0 in
                Hashtbl.replace and_adds key (cur + w)
              end
            end
          | _ -> ())
        | _ -> ());
        i := ni
      end
      else incr i
    done;
    Hashtbl.iter
      (fun (p, line) w ->
        if w >= 2 then
          emit ~rule:Finding.degenerate_quorum ~severity:Finding.Error ~line
            (Printf.sprintf
               "and_ %S collects multiple rpc completions: k = n, so every \
                peer stalls it; use Event.quorum with Majority/Count, or \
                Event.or_ with a timer escape"
               p))
      and_adds;
    Project.apply_pragmas [ fc ] !findings |> List.sort Finding.by_location
  end

let lint_string ?(path = "<string>") src = lint (Project.scan (path, src))
let lint_file path = lint_string ~path (Project.read_file path)
