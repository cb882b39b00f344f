(* End-to-end over the full corpus: DDT must find every Table 2 bug kind
   in every buggy driver, and nothing in the fixed variants (the paper
   reports zero false positives). At the default configuration each
   buggy driver's exact bug keys and coverage are pinned too, so any
   engine change that shifts a verdict or a covered block shows here;
   the same pins must hold with fault injection enabled. The default
   runs also pin their exploration counters, so a speedup that changes
   what is explored (rather than how fast) fails here as well. *)

open Ddt_core
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus
module Exec = Ddt_symexec.Exec
module Guard = Ddt_symexec.Guard
module Solver = Ddt_solver.Solver

let run ?(fixed = false) entry =
  Ddt.test_driver (Corpus.config ~fixed entry)

(* One default run per buggy driver, shared by every case that reads it. *)
let buggy_runs : (string, Session.result) Hashtbl.t = Hashtbl.create 8

let run_buggy entry =
  match Hashtbl.find_opt buggy_runs entry.Corpus.short with
  | Some r -> r
  | None ->
      let r = run entry in
      Hashtbl.replace buggy_runs entry.Corpus.short r;
      r

(* Per buggy driver: sorted bug keys, covered reachable blocks, and the
   size of the reachable universe. *)
let pinned =
  [ ("pro1000", [ "leak:Intel Pro/1000:initialize" ], 153, 174);
    ("pro100", [ "lock:Intel Pro/100 (DDK):wrongrel:0x800008" ], 128, 147);
    ("ac97", [ "crash:Intel 82801AA AC97:DRIVER_FAULT:0x400248" ], 109, 123);
    ("audiopci",
     [ "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x4001c8";
       "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400260";
       "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400380";
       "crash:Ensoniq AudioPCI:DRIVER_FAULT:0x400860" ],
     92, 113);
    ("pcnet", [ "leak:AMD PCNet:halt"; "leak:AMD PCNet:initialize" ], 88, 105);
    ("rtl8029",
     [ "crash:RTL8029:BAD_TIMER_OBJECT:0x4001a8";
       "crash:RTL8029:DRIVER_FAULT:0x400a78";
       "crash:RTL8029:DRIVER_FAULT:0x400d28"; "leak:RTL8029:initialize";
       "mem:RTL8029:0x400608:w" ],
     74, 87);
    ("deeploop", [ "crash:Deep-loop poller:DRIVER_FAULT:0x400518" ], 43, 43) ]

(* Per buggy driver at the default configuration: states created,
   instructions executed, states fused and fusions refused at merge
   points, solver queries and group solves. *)
let pinned_counters =
  [ ("pro1000", (1124, 79552, 809, 240, 2168, 33070));
    ("pro100", (935, 111124, 303, 283, 1757, 30168));
    ("ac97", (79, 67780, 18, 55, 100, 488));
    ("audiopci", (50, 16064, 8, 0, 36, 56));
    ("pcnet", (76, 16701, 32, 7, 118, 562));
    ("rtl8029", (127, 18931, 36, 22, 199, 1683));
    ("deeploop", (81, 3259, 46, 0, 125, 1088)) ]

let check_counters short (r : Session.result) =
  let states, steps, fused, refused, queries, group_solves =
    match List.assoc_opt short pinned_counters with
    | Some c -> c
    | None -> Alcotest.failf "no pinned counters for %s" short
  in
  let st = r.Session.r_stats in
  let check what expected got =
    Alcotest.(check int) (short ^ " " ^ what) expected got
  in
  check "states" states st.Exec.st_states_created;
  check "instructions" steps st.Exec.st_total_steps;
  check "merges fused" fused st.Exec.st_merged_states;
  check "merges refused" refused st.Exec.st_merge_refusals;
  check "solver queries" queries st.Exec.st_solver.Solver.s_queries;
  check "solver group solves" group_solves
    st.Exec.st_solver.Solver.s_group_solves

let check_pinned short (r : Session.result) =
  let keys, covered, reachable =
    match List.find_opt (fun (s, _, _, _) -> s = short) pinned with
    | Some (_, k, c, u) -> (k, c, u)
    | None -> Alcotest.failf "no pinned results for %s" short
  in
  Alcotest.(check (list string))
    (short ^ " bug keys") keys
    (List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs));
  Alcotest.(check int)
    (short ^ " covered reachable blocks") covered
    r.Session.r_covered_reachable;
  Alcotest.(check int)
    (short ^ " reachable blocks") reachable r.Session.r_reachable_blocks

let check_exact entry () =
  let r = run_buggy entry in
  check_pinned entry.Corpus.short r;
  check_counters entry.Corpus.short r

(* Worker crashes, solver exhaustion and memory pressure all at once.
   Injections fire on uncached group solves, so the run starts from a
   cold query cache. *)
let chaos_spec =
  { Guard.chaos_worker_crash_period = 25; chaos_solver_exhaust_period = 3;
    chaos_pressure_words = 50_000_000 }

let check_exact_chaos entry () =
  let cfg = Corpus.config entry in
  let cfg =
    { cfg with
      Config.exec_config =
        { cfg.Config.exec_config with Exec.jobs = 1; chaos = Some chaos_spec }
    }
  in
  Solver.clear_cache ();
  check_pinned entry.Corpus.short (Ddt.test_driver cfg)

let expected_kind_counts entry =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (k, _) ->
      Hashtbl.replace tbl k (1 + try Hashtbl.find tbl k with Not_found -> 0))
    entry.Corpus.expected_bugs;
  tbl

let check_driver entry () =
  let r = run_buggy entry in
  Format.printf "%a@." Ddt.pp_report r;
  let found = List.map (fun b -> b.Report.b_kind) r.Session.r_bugs in
  let count k = List.length (List.filter (( = ) k) found) in
  Hashtbl.iter
    (fun k expected ->
      let msg =
        Printf.sprintf "%s: %d x %s" entry.Corpus.short expected
          (Report.string_of_kind k)
      in
      Alcotest.(check bool) msg true (count k >= expected))
    (expected_kind_counts entry)

let check_fixed entry () =
  let r = run ~fixed:true entry in
  List.iter
    (fun b -> Format.printf "unexpected in fixed %s: %a@." entry.Corpus.short
        Report.pp_bug b)
    r.Session.r_bugs;
  Alcotest.(check int)
    (entry.Corpus.short ^ " fixed variant is clean")
    0
    (List.length r.Session.r_bugs)

let total_bug_count () =
  (* The headline number: 14 bugs across the six drivers. *)
  let total =
    List.fold_left
      (fun acc e -> acc + List.length (run_buggy e).Session.r_bugs)
      0 Corpus.all
  in
  Alcotest.(check bool)
    (Printf.sprintf "found %d bugs total (paper: 14 across 6 drivers)" total)
    true (total >= 14)

let () =
  let driver_cases =
    List.concat_map
      (fun e ->
        [ Alcotest.test_case (e.Corpus.short ^ " buggy") `Quick
            (check_driver e);
          Alcotest.test_case (e.Corpus.short ^ " fixed") `Quick
            (check_fixed e) ])
      Corpus.all
  in
  let exact_cases =
    List.concat_map
      (fun e ->
        [ Alcotest.test_case e.Corpus.short `Quick (check_exact e);
          Alcotest.test_case (e.Corpus.short ^ " +chaos") `Quick
            (check_exact_chaos e) ])
      Corpus.all
  in
  Alcotest.run "ddt_e2e_corpus"
    [ ("drivers", driver_cases);
      ("corpus parity", exact_cases);
      ("summary",
       [ Alcotest.test_case "14 bugs total" `Quick total_bug_count ]) ]
