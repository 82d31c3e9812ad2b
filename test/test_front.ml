(* The shared analysis front end against the standalone entry points.
   Running the pass list over one loaded project must give the same
   findings and certificates, byte for byte, as the five passes' own
   entry points run one by one — those are the reference — over lib/
   and over every fixture; and a certificate built from one project
   must agree with one assembled from the standalone passes. *)

module F = Analysis.Finding
module G = Analysis.Growth
module P = Analysis.Project
module Pass = Analysis.Pass
module C = Check.Certificate

let check_strings = Alcotest.(check (list string))

let find_dir cands =
  match List.find_opt Sys.file_exists cands with
  | Some d -> d
  | None -> Alcotest.fail ("not found: " ^ String.concat ", " cands)

let lib_root () = find_dir [ "../lib"; "lib" ]
let sources files = List.map (fun p -> (p, P.read_file p)) files

(* the five standalone entry points, in pass-list order: (name,
   findings, certificates), plus the domains footprints and the spg
   exposures *)
let standalone srcs =
  let lint = List.concat_map (fun (path, s) -> Analysis.Source_lint.lint_string ~path s) srcs in
  let bf, bc = Analysis.Bounds.analyze_sources srcs in
  let df, dc, footprints = Analysis.Domains.analyze_sources srcs in
  let sf, sc, exposures = Analysis.Spg_static.analyze_sources srcs in
  ( [
      ("source-lint", lint, []);
      ("interproc", Analysis.Interproc.analyze_sources srcs, []);
      ("bounds", bf, bc);
      ("domains", df, dc);
      ("spg", sf, sc);
    ],
    footprints,
    exposures )

let check_same label srcs =
  let reference, _, _ = standalone srcs in
  let shared = Pass.share (P.load srcs) in
  List.iter2
    (fun (p : Pass.t) (name, findings, certs) ->
      Alcotest.(check string) "pass order" name p.Pass.name;
      let o = p.Pass.run shared in
      check_strings
        (Printf.sprintf "%s: %s findings" label name)
        (List.map F.to_json findings) (List.map F.to_json o.Pass.findings);
      check_strings
        (Printf.sprintf "%s: %s certificates" label name)
        (List.map G.cert_to_json certs) (List.map G.cert_to_json o.Pass.certs))
    Pass.all reference

let test_lib_shared_equals_standalone () =
  check_same "lib" (sources (P.source_files [ lib_root () ]))

let test_fixtures_shared_equal_standalone () =
  let files = P.source_files [ find_dir [ "fixtures"; "test/fixtures" ] ] in
  Alcotest.(check bool) "fixtures found" true (List.length files > 30);
  List.iter (fun f -> check_same f (sources [ f ])) files

let test_certificate_agrees () =
  let root = lib_root () in
  let files = P.source_files [ root ] in
  let reference, footprints, exposures = standalone (sources files) in
  let findings = List.concat_map (fun (_, fs, _) -> fs) reference in
  let built = C.build ~roots:[ root ] () in
  let assembled = C.of_findings ~exposures ~footprints ~files findings in
  check_strings "flagged files" (C.flagged_files assembled) (C.flagged_files built);
  check_strings "growth-flagged files" (C.growth_flagged_files assembled)
    (C.growth_flagged_files built);
  check_strings "unsafe-shared files" (C.unsafe_shared_files assembled)
    (C.unsafe_shared_files built);
  Alcotest.(check int) "covered" (C.covered_count assembled) (C.covered_count built);
  Alcotest.(check int) "exposures" (C.exposure_count assembled) (C.exposure_count built);
  let paths = List.map fst footprints in
  let independent_pairs = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expect = C.independent assembled a b in
          if expect then incr independent_pairs;
          if C.independent built a b <> expect then
            Alcotest.failf "independent %s %s: built disagrees" a b)
        paths)
    paths;
  Alcotest.(check bool) "some pairs independent" true (!independent_pairs > 0)

let suite =
  [
    ( "front.shared",
      [
        Alcotest.test_case "lib: pass list == standalone" `Quick
          test_lib_shared_equals_standalone;
        Alcotest.test_case "fixtures: pass list == standalone" `Quick
          test_fixtures_shared_equal_standalone;
        Alcotest.test_case "certificate build == assembled" `Quick test_certificate_agrees;
      ] );
  ]
