module T = Tokens

type cert = Growth.cert = {
  c_rule : string;
  c_kind : string;
  c_file : string;
  c_line : int;
  c_site : string;
  c_verdict : Growth.verdict;
  c_evidence : string;
}

(* ---- timeout coverage ------------------------------------------------ *)

(* [Event.add q ~child:<atom>] after the head ending at [ni]: the simple
   parent [q] when the child is a timer — the escape that makes a quorum
   wait deadline-covered. *)
let timer_child (a : Lexer.token array) pm n ni =
  match T.parse_atom a pm ni with
  | T.AName q, i1
    when T.is_simple q
         && i1 + 3 < n
         && a.(i1).Lexer.text = "~"
         && a.(i1 + 1).Lexer.text = "child"
         && a.(i1 + 2).Lexer.text = ":" -> (
    let timerish h = List.mem (T.last2 h) [ "Sched.timer"; "Event.timer_kind" ] in
    match T.parse_atom a pm (i1 + 3) with
    | (T.AName h | T.AParen (Some h)), _ when timerish h -> Some q
    | _ -> None)
  | _ -> None

(* Per function: quorums bound to local names, whether a timer escape
   was wired in ([Event.add q ~child:(Sched.timer ...)] or rebinding
   through [Event.or_]), and how each one is waited on. The per-file
   lint already covers bare remote completions (red-wait/unbounded-wait);
   quorum waits are green to it, so the untimed ones are exactly the
   uncovered gap this rule closes. *)
let scan_waits p (fc : Project.file) (f : Project.fn) ~emit ~cert =
  let a = fc.Project.fc_toks in
  let pm = fc.Project.fc_pm in
  let n = f.Project.g_e in
  let quorums = Hashtbl.create 4 in
  let timered = Hashtbl.create 4 in
  let i = ref f.Project.g_b in
  while !i < n do
    (match T.binding_at a pm !i with
    | Some (T.PVar name, T.RHead (Some h), _) ->
      let l2 = T.last2 h in
      if l2 = "Event.quorum" then Hashtbl.replace quorums name a.(!i).Lexer.line
      else begin
        Hashtbl.remove quorums name;
        Hashtbl.remove timered name
      end;
      if l2 = "Event.or_" then Hashtbl.replace timered name ()
    | Some (T.PVar name, _, _) ->
      Hashtbl.remove quorums name;
      Hashtbl.remove timered name
    | _ -> ());
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, line, ni = T.qualified a !i in
      (match T.last2 name with
      | "Event.add" -> (
        match timer_child a pm n ni with
        | Some q when Hashtbl.mem quorums q -> Hashtbl.replace timered q ()
        | _ -> ())
      | ("Sched.wait" | "Sched.wait_timeout") as w -> (
        let _sched, i1 = T.parse_atom a pm ni in
        match fst (T.parse_atom a pm i1) with
        | T.AName q when T.is_simple q && Hashtbl.mem quorums q ->
          let quorum_cert verdict evidence =
            cert
              {
                c_rule = Finding.missing_deadline;
                c_kind = "quorum-wait";
                c_file = fc.Project.fc_path;
                c_line = line;
                c_site = q;
                c_verdict = verdict;
                c_evidence = evidence;
              }
          in
          if w = "Sched.wait_timeout" then
            quorum_cert Growth.Bounded "deadline via Sched.wait_timeout"
          else if Hashtbl.mem timered q then
            quorum_cert Growth.Bounded "timer escape wired into the quorum"
          else if Project.remote_reachable p f.Project.g_qname then begin
            emit ~line
              (Printf.sprintf
                 "untimed wait on quorum %S with no timer/or_ escape: green to the \
                  wait-structure rules, but a fail-slow minority still delays it \
                  without bound — use Sched.wait_timeout or add a Sched.timer child"
                 q);
            quorum_cert Growth.Flagged "no deadline or timer escape on any path"
          end
        | _ -> ())
      | _ -> ());
      i := ni
    end
    else incr i
  done

(* ---- retry coverage -------------------------------------------------- *)

(* A retry loop: a recursion marker ([let rec] inside the item, or a
   [while]) plus a remote call and a [Timed_out] arm in the same item.
   It is bounded when the body backs off ([Sched.sleep]) or guards on an
   attempt bound (a </> comparison against an int literal or a local
   int constant). *)
let scan_retries (fc : Project.file) (f : Project.fn) ~emit ~cert =
  let a = fc.Project.fc_toks in
  let n = f.Project.g_e in
  let has_rec = ref false in
  let has_call = ref false in
  let has_timeout_arm = ref false in
  let has_sleep = ref false in
  let has_guard = ref false in
  let int_names = Hashtbl.create 4 in
  let is_int_tok k =
    k >= f.Project.g_b && k < n
    &&
    let t = a.(k).Lexer.text in
    (t <> "" && t.[0] >= '0' && t.[0] <= '9') || Hashtbl.mem int_names t
  in
  (* first sweep: local int constants [let name = 8] *)
  let i = ref f.Project.g_b in
  while !i < n do
    let t = a.(!i).Lexer.text in
    if
      t = "let"
      && !i + 3 < n
      && Lexer.is_ident a.(!i + 1).Lexer.text
      && a.(!i + 2).Lexer.text = "="
      && (let v = a.(!i + 3).Lexer.text in v <> "" && v.[0] >= '0' && v.[0] <= '9')
    then Hashtbl.replace int_names a.(!i + 1).Lexer.text ();
    incr i
  done;
  let i = ref f.Project.g_b in
  while !i < n do
    let t = a.(!i).Lexer.text in
    if t = "rec" || t = "while" then has_rec := true;
    if Lexer.is_ident t then begin
      let name, _, ni = T.qualified a !i in
      (* the constructor is usually spelled qualified
         ([Depfast.Sched.Timed_out]), so match its last segment *)
      if T.last_segment name = "Timed_out" then has_timeout_arm := true;
      (match T.last2 name with
      | "Rpc.call" -> has_call := true
      | "Sched.sleep" -> has_sleep := true
      | _ -> ());
      i := ni
    end
    else begin
      (match t with
      | "<" when !i + 1 < n && a.(!i + 1).Lexer.text = "-" -> ()
      | "<" | ">" ->
        let after = if !i + 1 < n && a.(!i + 1).Lexer.text = "=" then !i + 2 else !i + 1 in
        if is_int_tok after || is_int_tok (!i - 1) then has_guard := true
      | _ -> ());
      incr i
    end
  done;
  if !has_rec && !has_call && !has_timeout_arm then begin
    let retry_cert verdict evidence =
      cert
        {
          c_rule = Finding.unbounded_retry;
          c_kind = "retry";
          c_file = fc.Project.fc_path;
          c_line = f.Project.g_line;
          c_site = f.Project.g_qname;
          c_verdict = verdict;
          c_evidence = evidence;
        }
    in
    if !has_sleep || !has_guard then
      retry_cert Growth.Bounded
        (if !has_sleep && !has_guard then "attempt bound and backoff sleep"
         else if !has_sleep then "backoff sleep between attempts"
         else "attempt bound guards the recursion")
    else begin
      emit ~line:f.Project.g_line
        (Printf.sprintf
           "%s retries a remote call on Timed_out with no attempt bound and no \
            backoff: a fail-slow peer turns this into a tight unbounded resend loop"
           f.Project.g_qname);
      retry_cert Growth.Flagged "no attempt bound or backoff sleep in the retry body"
    end
  end

(* ---- driver ---------------------------------------------------------- *)

let analyze p ~growth:(growth_findings, growth_certs) =
  let findings = ref [] in
  let certs = ref growth_certs in
  let cert c = certs := c :: !certs in
  List.iter
    (fun fc ->
      List.iter
        (fun f ->
          let emit_rule rule ~line msg =
            findings :=
              Finding.v ~rule ~severity:Finding.Warning
                ~loc:(Finding.File { file = fc.Project.fc_path; line })
                msg
              :: !findings
          in
          scan_waits p fc f ~emit:(emit_rule Finding.missing_deadline) ~cert;
          scan_retries fc f ~emit:(emit_rule Finding.unbounded_retry) ~cert)
        (Project.fns fc))
    (Project.files p);
  let all = Project.apply_pragmas (Project.files p) (growth_findings @ !findings) in
  (List.sort_uniq Finding.by_location all, List.sort_uniq Growth.by_site !certs)

(* standalone: the pass with its own growth analysis *)
let run p = analyze p ~growth:(Growth.analyze p)
let analyze_sources sources = run (Project.load sources)
let analyze_files paths = run (Project.load_files paths)
