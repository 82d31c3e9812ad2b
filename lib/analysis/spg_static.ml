(* The depfast-spg pass: classify every wait site's static slowness
   exposure — which fail-slow resource kinds can delay it, in which
   role — and its color in the {!Spg.color} sense (quorum-k green vs
   fate-sharing red). Taint comes from {!Propagation}; wait shapes
   mirror {!Bounds.scan_waits} and timer escapes use
   {!Bounds.timer_child}, so the two passes agree on what "covered"
   means. Every wait yields a certificate; every
   (wait x exposure) pair yields a propagation certificate carrying the
   least-(fn, line) witness path. *)

module T = Tokens

type color = Red | Green

let color_name = function Red -> "red" | Green -> "green"

type exposure = {
  x_fault : Propagation.fault;
  x_role : string;  (** ["self" | "peer"] *)
  x_taint : Propagation.taint;
}

type wait = {
  w_file : string;
  w_line : int;
  w_fn : string;  (** enclosing function, qualified *)
  w_site : string;  (** the waited event: binding name or head *)
  w_color : color;
  w_covered : bool;  (** wait_timeout, or_-escape, or timer child *)
  w_exposures : exposure list;
}

let role_of fault (t : Propagation.taint) ~file =
  match fault with
  | Propagation.Net_slow -> "peer"
  | _ -> if t.Propagation.t_source.s_file = file then "self" else "peer"

let path_string (t : Propagation.taint) =
  String.concat " -> " (List.rev t.Propagation.t_path)

let exposure_string x =
  Printf.sprintf "%s x %s" (Propagation.fault_name x.x_fault) x.x_role

(* ---- per-function wait scan ------------------------------------------ *)

(* Tracks, like {!Bounds.scan_waits}: quorum/or_/and_ bindings, timer
   escapes wired via [Event.add q ~child:(Sched.timer ...)], plus —
   for the unreached-mitigation rule — which simple variable a quorum's
   [Count] arity came from and which head each local was bound to. *)
let scan_fn p taint (fc : Project.file) (f : Project.fn) ~wait ~arity =
  let a = fc.Project.fc_toks in
  let pm = fc.Project.fc_pm in
  let n = f.Project.g_e in
  let quorums = Hashtbl.create 4 in
  let ors = Hashtbl.create 4 in
  let ands = Hashtbl.create 4 in
  let timered = Hashtbl.create 4 in
  let arity_var = Hashtbl.create 4 in
  let var_head = Hashtbl.create 8 in
  let exposures =
    List.map
      (fun (k, t) -> { x_fault = k; x_role = role_of k t ~file:fc.Project.fc_path; x_taint = t })
      (Propagation.taints taint f.Project.g_qname)
  in
  (* the Count arity of a quorum binding, when it is a simple variable *)
  let record_arity q eq =
    let limit = min n (eq + 60) in
    let j = ref (eq + 1) in
    while !j < limit && a.(!j).Lexer.text <> "in" do
      if a.(!j).Lexer.text = "Count" then begin
        let k = ref (!j + 1) in
        while !k < limit && a.(!k).Lexer.text = "(" do
          incr k
        done;
        (if !k < limit then
           let t = a.(!k).Lexer.text in
           if Lexer.is_ident t && T.is_simple t && not (t.[0] >= '0' && t.[0] <= '9') then
             Hashtbl.replace arity_var q t);
        j := limit
      end
      else incr j
    done
  in
  let emit_wait ~line ~site ~color ~covered =
    wait
      {
        w_file = fc.Project.fc_path;
        w_line = line;
        w_fn = f.Project.g_qname;
        w_site = site;
        w_color = color;
        w_covered = covered;
        w_exposures = exposures;
      }
  in
  (* green-quorum wait whose Count arity flows from a tainted call *)
  let check_arity q line =
    match Hashtbl.find_opt arity_var q with
    | None -> ()
    | Some v -> (
      match Hashtbl.find_opt var_head v with
      | None -> ()
      | Some h -> (
        match Project.resolve p ~mdl:fc.Project.fc_mdl h with
        | Some callee -> (
          match Propagation.taints taint callee with
          | (k, t) :: _ -> arity ~line ~q ~v ~callee ~fault:k ~taint:t
          | [] -> ())
        | None -> ()))
  in
  let classify_head h =
    match T.last2 h with
    | "Event.quorum" | "Event.or_" -> Green
    | _ -> Red
  in
  let wait_on ~line ~covered ev =
    match ev with
    | T.AName q when T.is_simple q ->
      if Hashtbl.mem quorums q then begin
        emit_wait ~line ~site:("quorum " ^ q) ~color:Green
          ~covered:(covered || Hashtbl.mem timered q);
        check_arity q line
      end
      else if Hashtbl.mem ors q then emit_wait ~line ~site:("or_ " ^ q) ~color:Green ~covered:true
      else if Hashtbl.mem ands q then emit_wait ~line ~site:("and_ " ^ q) ~color:Red ~covered
      else emit_wait ~line ~site:q ~color:Red ~covered
    | T.AName q -> emit_wait ~line ~site:q ~color:Red ~covered
    | T.AParen (Some h) -> emit_wait ~line ~site:(T.last2 h) ~color:(classify_head h) ~covered
    | T.AParen None | T.AOther -> emit_wait ~line ~site:"<expr>" ~color:Red ~covered
  in
  let i = ref f.Project.g_b in
  while !i < n do
    (match T.binding_at a pm !i with
    (* [let quorum, calls = Rpc.broadcast ...]: the first component is
       an [Event.quorum arity] built by the rpc layer — green *)
    | Some (T.PTuple (q :: _), T.RHead (Some h), _) when T.last2 h = "Rpc.broadcast" ->
      Hashtbl.replace quorums q a.(!i).Lexer.line
    | Some (T.PVar name, T.RHead (Some h), eq) ->
      let l2 = T.last2 h in
      Hashtbl.remove quorums name;
      Hashtbl.remove ors name;
      Hashtbl.remove ands name;
      Hashtbl.remove timered name;
      (match l2 with
      | "Event.quorum" ->
        Hashtbl.replace quorums name a.(!i).Lexer.line;
        record_arity name eq
      | "Event.or_" -> Hashtbl.replace ors name ()
      | "Event.and_" -> Hashtbl.replace ands name ()
      | _ -> Hashtbl.replace var_head name h)
    | Some (T.PVar name, _, _) ->
      Hashtbl.remove quorums name;
      Hashtbl.remove ors name;
      Hashtbl.remove ands name;
      Hashtbl.remove timered name;
      Hashtbl.remove var_head name
    | _ -> ());
    if Lexer.is_ident a.(!i).Lexer.text then begin
      let name, line, ni = T.qualified a !i in
      (match T.last2 name with
      | "Event.add" -> (
        match Bounds.timer_child a pm n ni with
        | Some q when Hashtbl.mem quorums q -> Hashtbl.replace timered q ()
        | _ -> ())
      | "Sched.wait" | "Sched.wait_timeout" ->
        let covered = T.last2 name = "Sched.wait_timeout" in
        let _sched, i1 = T.parse_atom a pm ni in
        let ev, _ = T.parse_atom a pm i1 in
        wait_on ~line ~covered ev
      | "Condvar.wait" | "Condvar.wait_timeout" ->
        (* a condvar handoff fate-shares with its (single) signaller *)
        let covered = T.last2 name = "Condvar.wait_timeout" in
        let _sched, i1 = T.parse_atom a pm ni in
        let cv, _ = T.parse_atom a pm i1 in
        let site =
          match cv with
          | T.AName c -> "condvar " ^ c
          | _ -> "condvar"
        in
        emit_wait ~line ~site ~color:Red ~covered
      | _ -> ());
      i := ni
    end
    else incr i
  done

(* ---- driver ---------------------------------------------------------- *)

let analyze_project p taint =
  let findings = ref [] in
  let certs = ref [] in
  let waits = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun fc ->
      List.iter
        (fun f ->
          scan_fn p taint fc f
            ~wait:(fun w -> waits := w :: !waits)
            ~arity:(fun ~line ~q ~v ~callee ~fault ~taint:t ->
              emit
                (Finding.v ~rule:Finding.unreached_mitigation ~severity:Finding.Warning
                   ~loc:(Finding.File { file = fc.Project.fc_path; line })
                   (Printf.sprintf
                      "quorum %S claims green but its Count arity %S comes from %s, which \
                       is %s-tainted (seed %s at %s:%d): the mitigation's k is itself \
                       controlled by the slow resource"
                      q v callee
                      (Propagation.fault_name fault)
                      t.Propagation.t_source.Propagation.s_head
                      t.Propagation.t_source.Propagation.s_file
                      t.Propagation.t_source.Propagation.s_line))))
        (Project.fns fc))
    (Project.files p);
  (* certificates + red-exposure findings per wait *)
  List.iter
    (fun w ->
      let exposed = w.w_exposures <> [] in
      let flagged = w.w_color = Red && exposed && not w.w_covered in
      let verdict = if flagged then Growth.Flagged else Growth.Bounded in
      let exp_str =
        if not exposed then "no slow-resource exposure reaches this wait"
        else
          Printf.sprintf "exposed to %s%s"
            (String.concat ", " (List.map exposure_string w.w_exposures))
            (if w.w_color = Green then "; quorum-k green"
             else if w.w_covered then "; deadline-covered"
             else "; fate-sharing and uncovered")
      in
      certs :=
        {
          Growth.c_rule = Finding.red_exposure;
          c_kind = "wait";
          c_file = w.w_file;
          c_line = w.w_line;
          c_site = w.w_site;
          c_verdict = verdict;
          c_evidence = Printf.sprintf "%s wait in %s: %s" (color_name w.w_color) w.w_fn exp_str;
        }
        :: !certs;
      List.iter
        (fun x ->
          let s = x.x_taint.Propagation.t_source in
          certs :=
            {
              Growth.c_rule = Finding.red_exposure;
              c_kind = "propagation";
              c_file = w.w_file;
              c_line = w.w_line;
              c_site = Printf.sprintf "%s->%s" (Propagation.fault_name x.x_fault) w.w_site;
              c_verdict = verdict;
              c_evidence =
                Printf.sprintf "role=%s color=%s path %s; seed %s at %s:%d" x.x_role
                  (color_name w.w_color) (path_string x.x_taint) s.Propagation.s_head
                  s.Propagation.s_file s.Propagation.s_line;
            }
            :: !certs)
        w.w_exposures;
      if flagged then
        emit
          (Finding.v ~rule:Finding.red_exposure ~severity:Finding.Warning
             ~loc:(Finding.File { file = w.w_file; line = w.w_line })
             (Printf.sprintf
                "fate-sharing wait on %s is exposed to %s (via %s) with no timeout \
                 escape: one slow resource delays this coroutine without bound"
                w.w_site
                (String.concat ", " (List.map exposure_string w.w_exposures))
                (path_string (List.hd w.w_exposures).x_taint))))
    !waits;
  let exposures =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun w ->
        List.iter
          (fun x ->
            let prev = try Hashtbl.find tbl w.w_file with Not_found -> [] in
            Hashtbl.replace tbl w.w_file
              ((Propagation.fault_name x.x_fault, color_name w.w_color) :: prev))
          w.w_exposures)
      !waits;
    Hashtbl.fold (fun file l acc -> (file, List.sort_uniq compare l) :: acc) tbl []
    |> List.sort compare
  in
  ( List.sort_uniq Finding.by_location (Project.apply_pragmas (Project.files p) !findings),
    List.sort_uniq Growth.by_site !certs,
    exposures )

(* standalone: the pass with its own growth and propagation analyses *)
let run p = analyze_project p (Propagation.analyze p ~growth:(snd (Growth.analyze p)))
let analyze_sources sources = run (Project.load sources)
let analyze_files paths = run (Project.load_files paths)
