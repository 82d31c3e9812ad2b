(* ---- certificates ---------------------------------------------------- *)

type verdict = Bounded | Flagged

type cert = {
  c_rule : string;  (* the rule family this site was judged under *)
  c_kind : string;  (* queue | hashtbl | buffer | log | counter-window | cons | quorum-wait | retry *)
  c_file : string;
  c_line : int;
  c_site : string;  (* canonical container / window name, or the function *)
  c_verdict : verdict;
  c_evidence : string;  (* witness: what bounds it, or why it is flagged *)
}

let verdict_name = function Bounded -> "bounded" | Flagged -> "flagged"

let cert_to_json c =
  Printf.sprintf
    "{\"file\": \"%s\", \"line\": %d, \"site\": \"%s\", \"kind\": \"%s\", \"rule\": \
     \"%s\", \"verdict\": \"%s\", \"evidence\": \"%s\"}"
    (Finding.json_escape c.c_file) c.c_line (Finding.json_escape c.c_site)
    (Finding.json_escape c.c_kind) (Finding.json_escape c.c_rule)
    (verdict_name c.c_verdict)
    (Finding.json_escape c.c_evidence)

let by_site a b =
  let c = compare a.c_file b.c_file in
  if c <> 0 then c
  else
    let c = compare a.c_line b.c_line in
    if c <> 0 then c
    else
      let c = compare a.c_site b.c_site in
      if c <> 0 then c else compare a.c_kind b.c_kind

let canon (fc : Project.file) raw =
  Tokens.canon ~mdl:fc.Project.fc_mdl ~local:(Hashtbl.mem (Project.stores fc)) raw

(* ---- growth sites and bound evidence --------------------------------- *)

type site_kind = Queue | Hash | Buf | Log | Cons | Counter

let kind_name = function
  | Queue -> "queue"
  | Hash -> "hashtbl"
  | Buf -> "buffer"
  | Log -> "log"
  | Cons -> "cons"
  | Counter -> "counter-window"

(* (head, container argument position, kind) *)
let growth_ops =
  [
    ("Queue.add", (1, Queue));
    ("Queue.push", (1, Queue));
    ("Hashtbl.add", (0, Hash));
    ("Buffer.add_string", (0, Buf));
    ("Buffer.add_char", (0, Buf));
    ("Buffer.add_bytes", (0, Buf));
    ("Buffer.add_buffer", (0, Buf));
    ("Rlog.append", (0, Log));
  ]

let drain_ops =
  [
    ("Queue.pop", Queue);
    ("Queue.take", Queue);
    ("Queue.take_opt", Queue);
    ("Queue.clear", Queue);
    ("Queue.transfer", Queue);
    ("Hashtbl.remove", Hash);
    ("Hashtbl.reset", Hash);
    ("Hashtbl.clear", Hash);
    ("Buffer.clear", Buf);
    ("Buffer.reset", Buf);
    ("Rlog.truncate_from", Log);
  ]

let length_ops =
  [ ("Queue.length", Queue); ("Hashtbl.length", Hash); ("Buffer.length", Buf); ("Rlog.length", Log) ]

type site = {
  s_fn : string;
  s_file : string;
  s_line : int;
  s_container : string;
  s_kind : site_kind;
  s_op : string;
}

(* what bounds a container, and where *)
type evidence = {
  e_fn : string;
  e_line : int;
  e_container : string;
  e_kind : site_kind;  (* the container kind this evidence is valid for *)
  e_what : string;
}

type facts = { mutable sites : site list; mutable evidence : evidence list }

(* Does a comparison operator neighbour token [i] (the first token of a
   container/counter mention ending at [j])? [<-] is not a comparison. *)
let near_comparison (a : Lexer.token array) i j =
  let n = Array.length a in
  let is_cmp k =
    k >= 0 && k < n
    &&
    match a.(k).Lexer.text with
    | "<" -> not (k + 1 < n && a.(k + 1).Lexer.text = "-")
    | ">" -> true
    | _ -> false
  in
  is_cmp j
  || (j + 1 < n && a.(j).Lexer.text = "=" && is_cmp (j + 1))
  || is_cmp (i - 1)
  || (i - 1 >= 0 && a.(i - 1).Lexer.text = "=" && is_cmp (i - 2))

let scan_fn (fc : Project.file) (f : Project.fn) (facts : facts) =
  let a = fc.Project.fc_toks in
  let n = f.Project.g_e in
  let add_site line container kind op =
    if Tokens.canonical container then
      facts.sites <-
        {
          s_fn = f.Project.g_qname;
          s_file = fc.Project.fc_path;
          s_line = line;
          s_container = container;
          s_kind = kind;
          s_op = op;
        }
        :: facts.sites
  in
  let add_ev line container kind what =
    if Tokens.canonical container then
      facts.evidence <-
        { e_fn = f.Project.g_qname; e_line = line; e_container = container; e_kind = kind; e_what = what }
        :: facts.evidence
  in
  let i = ref f.Project.g_b in
  while !i < n do
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, line, ni = Tokens.qualified a !i in
      let l2 = Tokens.last2 name in
      (* container operations *)
      (match List.assoc_opt l2 growth_ops with
      | Some (argpos, kind) -> (
        match Tokens.nth_arg_pos a ni argpos with
        | Some (arg, _) -> add_site line (canon fc arg) kind l2
        | None -> ())
      | None -> ());
      (match List.assoc_opt l2 drain_ops with
      | Some kind -> (
        match Tokens.nth_arg_pos a ni 0 with
        | Some (arg, _) ->
          add_ev line (canon fc arg) kind (Printf.sprintf "drained via %s at line %d" l2 line)
        | None -> ())
      | None -> ());
      (match List.assoc_opt l2 length_ops with
      | Some kind -> (
        match Tokens.nth_arg_pos a ni 0 with
        | Some (arg, _) ->
          if near_comparison a (!i) ni then
            add_ev line (canon fc arg) kind
              (Printf.sprintf "capacity check on %s at line %d" l2 line)
        | None -> ())
      | None -> ());
      (* assignment forms: counter windows, list-cons accumulators,
         resets. [x.f <- x.f + 1] grows a window; [x.f <- x.f - 1] and a
         comparison on [x.f] bound it; [x.f <- e :: x.f] grows a list;
         any other [x.f <- rhs] is a reset (evidence for cons only). *)
      if ni + 1 < n && a.(ni).Lexer.text = "<" && a.(ni + 1).Lexer.text = "-" then begin
        let field = Tokens.last_segment name in
        let c = canon fc name in
        let rhs = ni + 2 in
        let handled = ref false in
        if rhs < n && Lexer.is_ident a.(rhs).Lexer.text then begin
          let rname, _, rn = Tokens.qualified a rhs in
          if Tokens.last_segment rname = field && rn < n then
            match a.(rn).Lexer.text with
            | "+" ->
              handled := true;
              add_site line c Counter "increment"
            | "-" ->
              handled := true;
              add_ev line c Counter (Printf.sprintf "decremented at line %d" line)
            | _ -> ()
        end;
        if not !handled then begin
          (* cons onto self before the statement ends? *)
          let stop = min n (rhs + 60) in
          let k = ref rhs in
          let found_cons = ref false in
          while (not !found_cons) && !k + 2 < stop do
            if
              a.(!k).Lexer.text = ":"
              && a.(!k + 1).Lexer.text = ":"
              && Lexer.is_ident a.(!k + 2).Lexer.text
            then begin
              let rname, _, _ = Tokens.qualified a (!k + 2) in
              if Tokens.last_segment rname = field then found_cons := true
            end;
            incr k
          done;
          if !found_cons then add_site line c Cons "cons"
          else add_ev line c Cons (Printf.sprintf "reset/reassigned at line %d" line)
        end
      end;
      (* a comparison adjacent to a mention bounds a counter window *)
      if near_comparison a !i ni then
        add_ev line (canon fc name) Counter
          (Printf.sprintf "compared against a capacity at line %d" line);
      i := ni
    end
    else incr i
  done

(* ---- the growth analysis --------------------------------------------- *)

let analyze p =
  let facts = { sites = []; evidence = [] } in
  List.iter (fun fc -> List.iter (fun f -> scan_fn fc f facts) (Project.fns fc)) (Project.files p);
  (* index evidence by (function, container, kind) for component lookup *)
  let ev_by_fn = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.add ev_by_fn (e.e_fn, e.e_container, e.e_kind) e) facts.evidence;
  let component_evidence root site =
    match Project.reachable p root with
    | None -> None
    | Some set ->
      (* deterministic witness: the least (function, line) match, so
         reported evidence cannot depend on hash-table iteration order *)
      Hashtbl.fold
        (fun q () acc ->
          let cand = Hashtbl.find_opt ev_by_fn (q, site.s_container, site.s_kind) in
          match (acc, cand) with
          | None, c -> c
          | Some _, None -> acc
          | Some a, Some c -> if (c.e_fn, c.e_line) < (a.e_fn, a.e_line) then cand else acc)
        set None
  in
  let findings = ref [] in
  let certs = ref [] in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let key = (s.s_file, s.s_line, s.s_container) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        match Project.roots_reaching p s.s_fn with
        | [] -> ()  (* not remote-triggered: out of scope *)
        | roots -> (
          (* a site is unbounded if SOME remote-triggered component
             reaches it with no drain/capacity evidence: backpressure
             must live on the producing path, not in a sibling loop *)
          let naked =
            List.find_opt (fun (root, _) -> component_evidence root s = None) roots
          in
          let cert verdict evidence =
            certs :=
              {
                c_rule = Finding.unbounded_growth;
                c_kind = kind_name s.s_kind;
                c_file = s.s_file;
                c_line = s.s_line;
                c_site = s.s_container;
                c_verdict = verdict;
                c_evidence = evidence;
              }
              :: !certs
          in
          match naked with
          | None ->
            let root = fst (List.hd roots) in
            let ev = Option.get (component_evidence root s) in
            cert Bounded (Printf.sprintf "%s (in %s)" ev.e_what ev.e_fn)
          | Some (root, why) ->
            if s.s_kind = Counter then ()
              (* a bare counter consumes no memory; without a cap
                 comparison it is simply not a window — stay silent *)
            else begin
              findings :=
                Finding.v ~rule:Finding.unbounded_growth ~severity:Finding.Error
                  ~loc:(Finding.File { file = s.s_file; line = s.s_line })
                  (Printf.sprintf
                     "%s grows %s on a path from %s (%s) with no drain, truncation, or \
                      capacity check in that component: a slow consumer lets it grow \
                      without bound (the paper's RethinkDB backlog, §2)"
                     s.s_op s.s_container root why)
                :: !findings;
              cert Flagged (Printf.sprintf "no drain or capacity check reachable from %s" root)
            end)
      end)
    (List.rev facts.sites);
  (!findings, !certs)
