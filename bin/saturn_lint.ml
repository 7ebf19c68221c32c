(* saturn-lint: the determinism & invariant static-analysis pass.

   Scans the repo's own sources (default: lib/ and bin/) with a
   hand-rolled tokenizer and a lightweight parse layer — no ppxlib, no
   compiler-libs — and fails on any unwaivered finding. See
   lib/lint/rules.mli for the nine rules, ci/layers.txt for the layer
   contract, and README "Static analysis" for the waiver grammar. *)

let usage =
  "saturn_lint [--json] [--root DIR] [--baseline FILE] [--layers FILE] [--uses DIR]\n\
  \            [--waivers-out FILE] [--check-waivers FILE] [--summary-out FILE]\n\
  \            [--explain RULE] [DIR...]\n\nOptions:"

(* --explain RULE: rationale + minimal bad/good example, read from the
   rule's fixture file so the printed example is the same source the
   tests prove fires (and stops firing when fixed) — it cannot drift. *)
let explain ~root rule =
  if not (List.mem rule Lint.Rules.waivable) then begin
    Printf.eprintf "saturn-lint: unknown rule %S\nrules: %s\n" rule
      (String.concat ", " Lint.Rules.waivable);
    exit 2
  end;
  let path = Filename.concat root (Printf.sprintf "test/lint_fixtures/%s.ml" rule) in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "saturn-lint: no fixture for %S at %s\n" rule path;
    exit 2
  end;
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let section = ref `Rationale in
  print_string (rule ^ "\n" ^ String.make (String.length rule) '=' ^ "\n");
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      if trimmed = "(* --bad-- *)" then begin
        section := `Bad;
        print_string "\nA finding:\n"
      end
      else if trimmed = "(* --good-- *)" then begin
        section := `Good;
        print_string "\nThe fix:\n"
      end
      else
        match !section with
        | `Rationale ->
          (* strip the comment framing of the rationale header *)
          let t = trimmed in
          let t = if String.length t >= 2 && String.sub t 0 2 = "(*" then String.sub t 2 (String.length t - 2) else t in
          let t =
            if String.length t >= 2 && String.sub t (String.length t - 2) 2 = "*)" then
              String.sub t 0 (String.length t - 2)
            else t
          in
          let t = String.trim t in
          if t <> "" && not (Lint.Token.starts_with ~prefix:"rule:" t) then
            print_string (t ^ "\n")
        | `Bad | `Good -> print_string ("  " ^ line ^ "\n"))
    (String.split_on_char '\n' src);
  exit 0

let () =
  let json = ref false in
  let root = ref "." in
  let baseline = ref None in
  let layers = ref None in
  let uses = ref [] in
  let waivers_out = ref None in
  let check_waivers = ref None in
  let summary_out = ref None in
  let explain_rule = ref None in
  let dirs = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " machine-readable report on stdout");
      ("--root", Arg.Set_string root, "DIR repository root to scan from (default .)");
      ( "--baseline",
        Arg.String (fun s -> baseline := Some s),
        "FILE counter baseline (default ROOT/ci/smoke-counters.txt when present)" );
      ( "--layers",
        Arg.String (fun s -> layers := Some s),
        "FILE layer contract (default ROOT/ci/layers.txt when present)" );
      ( "--uses",
        Arg.String (fun s -> uses := s :: !uses),
        "DIR reference-only tree whose uses keep exports alive (default: test bench examples \
         perfbench)" );
      ( "--waivers-out",
        Arg.String (fun s -> waivers_out := Some s),
        "FILE write the waiver inventory (for ci/regen.sh --lint-baseline)" );
      ( "--check-waivers",
        Arg.String (fun s -> check_waivers := Some s),
        "FILE fail if the tree's waivers diverge from this inventory" );
      ( "--summary-out",
        Arg.String (fun s -> summary_out := Some s),
        "FILE write a markdown summary (appended to $GITHUB_STEP_SUMMARY by CI)" );
      ( "--explain",
        Arg.String (fun s -> explain_rule := Some s),
        "RULE print the rule's rationale and minimal bad/good example, then exit" );
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  (match !explain_rule with Some rule -> explain ~root:!root rule | None -> ());
  let dirs = match List.rev !dirs with [] -> [ "lib"; "bin" ] | ds -> ds in
  let use_dirs =
    match List.rev !uses with [] -> [ "test"; "bench"; "examples"; "perfbench" ] | ds -> ds
  in
  (* exclude scanned dirs double-listed as use dirs *)
  let use_dirs = List.filter (fun d -> not (List.mem d dirs)) use_dirs in
  let default_under name = function
    | Some f -> Some f
    | None -> Some (Filename.concat !root (Filename.concat "ci" name))
  in
  let baseline = default_under "smoke-counters.txt" !baseline in
  let layers = default_under "layers.txt" !layers in
  let report = Lint.Engine.run ?baseline ?layers ~use_dirs ~root:!root ~dirs () in
  (match !waivers_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Lint.Report.to_waivers_txt report);
    close_out oc
  | None -> ());
  (match !summary_out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Lint.Report.to_summary_md report);
    close_out oc
  | None -> ());
  let ratchet_errors =
    match !check_waivers with
    | None -> []
    | Some path when Sys.file_exists path -> (
      let ic = open_in_bin path in
      let inv = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Lint.Report.check_waivers report ~inventory:inv with
      | Ok () -> []
      | Error errs -> errs)
    | Some path -> [ Printf.sprintf "waiver inventory %s does not exist" path ]
  in
  Lint.Report.print ~json:!json report;
  List.iter (fun e -> Printf.eprintf "saturn-lint: %s\n" e) ratchet_errors;
  exit (if report.Lint.Report.findings = [] && ratchet_errors = [] then 0 else 1)
