(* The pass list: the five static passes as records over one loaded
   project, with the analyses several of them read computed at most once
   and only when a pass forces them. *)

type shared = {
  project : Project.t;
  growth : (Finding.t list * Growth.cert list) Lazy.t;
  effects : Effects.t Lazy.t;
  taint : Propagation.t Lazy.t;
}

let share project =
  let growth = lazy (Growth.analyze project) in
  {
    project;
    growth;
    effects = lazy (Effects.compute project);
    taint = lazy (Propagation.analyze project ~growth:(snd (Lazy.force growth)));
  }

type output = {
  findings : Finding.t list;
  certs : Growth.cert list;
  footprints : Domains.footprint list;
  exposures : (string * (string * string) list) list;
}

type t = {
  name : string;
  certifies : bool;
  summary : Growth.cert list -> string;
  run : shared -> output;
}

let empty = { findings = []; certs = []; footprints = []; exposures = [] }
let flagged certs = List.length (List.filter (fun c -> c.Growth.c_verdict = Growth.Flagged) certs)

let all =
  [
    {
      name = "source-lint";
      certifies = false;
      summary = (fun _ -> "");
      run =
        (fun s -> { empty with findings = List.concat_map Source_lint.lint (Project.files s.project) });
    };
    {
      name = "interproc";
      certifies = false;
      summary = (fun _ -> " [interproc]");
      run = (fun s -> { empty with findings = Interproc.analyze s.project });
    };
    {
      name = "bounds";
      certifies = true;
      summary =
        (fun certs ->
          Printf.sprintf " [bounds: %d site(s) certified, %d flagged]"
            (List.length certs - flagged certs)
            (flagged certs));
      run =
        (fun s ->
          let findings, certs = Bounds.analyze s.project ~growth:(Lazy.force s.growth) in
          { empty with findings; certs });
    };
    {
      name = "domains";
      certifies = true;
      summary =
        (fun certs ->
          Printf.sprintf " [domains: %d cell(s), %d unsafe]" (List.length certs) (flagged certs));
      run =
        (fun s ->
          let findings, certs, footprints = Domains.analyze s.project (Lazy.force s.effects) in
          { empty with findings; certs; footprints });
    };
    {
      name = "spg";
      certifies = true;
      summary =
        (fun certs ->
          let waits, props = List.partition (fun c -> c.Growth.c_kind = "wait") certs in
          Printf.sprintf " [spg: %d wait site(s), %d propagation edge(s), %d red-uncovered]"
            (List.length waits) (List.length props) (flagged waits));
      run =
        (fun s ->
          let findings, certs, exposures = Spg_static.analyze_project s.project (Lazy.force s.taint) in
          { empty with findings; certs; exposures });
    };
  ]
