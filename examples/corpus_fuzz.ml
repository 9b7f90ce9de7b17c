(* Corpus management: fuzz with the seeded defects active, save every new
   failure (minimized, deduplicated) to an on-disk corpus, then reopen the
   corpus and replay it — the regression-testing workflow around a
   fuzzer's findings.

     dune exec examples/corpus_fuzz.exe *)

module D = Nnsmith_difftest
module Corpus = Nnsmith_corpus.Corpus

let () =
  let corpus_dir = Filename.temp_file "nnsmith_corpus" "" in
  Sys.remove corpus_dir;
  Nnsmith_faults.Faults.activate_all ();
  print_endline "fuzzing 200 tests, saving every new failure...";
  let r =
    D.Pfuzz.fuzz ~jobs:1 ~report_dir:corpus_dir ~root_seed:99
      ~budget:(Nnsmith_parallel.Pool.Tests 200) ()
  in
  Printf.printf "saved %d distinct failures under %s (%d duplicates)\n\n"
    r.r_saved corpus_dir r.r_dups;

  (* Replay: reopen the corpus from disk and confirm every case still fails
     the way it was recorded. *)
  print_endline "replaying the corpus from disk:";
  List.iter
    (fun (o : D.Report.outcome) ->
      Printf.printf "  %-28s %-9s %s\n" o.rp_case o.rp_expected_kind
        (if o.rp_drift then "DRIFTED " ^ o.rp_note else "REPRODUCED"))
    (D.Report.replay (Corpus.open_ corpus_dir))
