(* Tests for dynamic state merging at post-dominators (veritesting).

   Layered the same way as the feature: Pdom unit tests over hand-built
   CFGs, directed fuse/refuse tests driving the merge pool with
   hand-built states, solver-stack regressions (Qcache renaming
   stability over commuted disjunctions, Indep treating ite guards as
   dependence edges), and session-level differential properties — a
   merged run must report exactly the bugs an unmerged run reports, and
   its replay scripts must still reproduce. *)

module Expr = Ddt_solver.Expr
module Solver = Ddt_solver.Solver
module Qcache = Ddt_solver.Qcache
module Indep = Ddt_solver.Indep
module Isa = Ddt_dvm.Isa
module Asm = Ddt_dvm.Asm
module Mem = Ddt_dvm.Mem
module Layout = Ddt_dvm.Layout
module Kstate = Ddt_kernel.Kstate
module Pci = Ddt_kernel.Pci
module Icfg = Ddt_staticx.Icfg
module Pdom = Ddt_staticx.Pdom
module St = Ddt_symexec.Symstate
module Symmem = Ddt_symexec.Symmem
module Merge = Ddt_symexec.Merge
module Exec = Ddt_symexec.Exec
module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let isz = Isa.instr_size

(* --- post-dominators -------------------------------------------------------- *)

let pdom_of src = Pdom.compute (Icfg.build (Asm.assemble ~name:"t" src))

let check_mp msg pd leader expect =
  Alcotest.(check (option int)) msg expect (Pdom.merge_point pd leader)

let test_pdom_diamond () =
  let pd = pdom_of {|
      .entry driver_entry
      .func driver_entry
          jz r1, other
          movi r0, 1
          jmp join
      other:
          movi r0, 2
      join:
          ret
    |} in
  (* blocks: 0 = the branch, 1*isz = then-arm, 3*isz = else-arm,
     4*isz = join *)
  check_mp "branch reconverges at the join" pd 0 (Some (4 * isz));
  check_mp "then-arm also flows to the join" pd isz (Some (4 * isz));
  check_mp "the join block exits the function" pd (4 * isz) None

let test_pdom_nested_diamond () =
  let pd = pdom_of {|
      .entry driver_entry
      .func driver_entry
          jz r1, outer
          jz r2, inner
          movi r0, 1
          jmp ijoin
      inner:
          movi r0, 2
      ijoin:
          jmp join
      outer:
          movi r0, 3
      join:
          ret
    |} in
  check_mp "inner branch meets at the inner join" pd isz (Some (5 * isz));
  check_mp "outer branch meets at the outer join" pd 0 (Some (7 * isz))

let test_pdom_loop_latch () =
  let pd = pdom_of {|
      .entry driver_entry
      .func driver_entry
          movi r1, 4
      head:
          jz r1, done
          sub r1, r1, 1
          jmp head
      done:
          ret
    |} in
  (* The loop-exit branch reconverges where the loop is left: the merge
     scheduler fuses per-iteration forks right after the latch. *)
  check_mp "loop branch meets at the exit block" pd isz (Some (4 * isz))

(* --- the merge pool on hand-built states ------------------------------------ *)

let device () =
  Pci.assign_resources
    { Pci.vendor_id = 1; device_id = 2; revision = 0; bar_sizes = [ 0x1000 ];
      irq_line = 9 }
    ~mmio_base:Layout.mmio_base

(* A forked sibling pair carrying complementary guards over one symbolic
   word, both standing at the merge pc already. Returns the parent's
   constraint cell (the token base) and the two arms. *)
let sibling_pair () =
  let mem = Symmem.create ~base:(Mem.create ()) ~symdev:None in
  let ks = Kstate.create ~device:(device ()) () in
  let parent = St.create ~id:1 ~mem ~ks in
  parent.St.entry_name <- "initialize";
  St.add_constraint parent Expr.tru;
  let base_cs = parent.St.constraints in
  let a = St.fork parent ~id:2 in
  let b = St.fork parent ~id:3 in
  let g =
    Expr.cmp Expr.Eq (Expr.var (Expr.fresh_var Expr.W32)) (Expr.word 0)
  in
  St.add_constraint a g;
  St.add_constraint b (Expr.not_ g);
  a.St.pc <- 0x200;
  b.St.pc <- 0x200;
  (base_cs, a, b)

let open_or_fail pool base a b =
  check_bool "token opened" true
    (Merge.open_token pool ~branch_pc:0x100 ~merge_pc:0x200 ~base
       ~base_idx:(Indep.of_list base) a b)

let park_first pool st =
  match Merge.on_arrival pool st with
  | Merge.A_parked o ->
      check_int "first arrival just waits" 0 (List.length o.Merge.mo_requeue)
  | Merge.A_continue -> Alcotest.fail "tagged state must park"

let fold_on_last pool st =
  match Merge.on_arrival pool st with
  | Merge.A_parked o -> o
  | Merge.A_continue -> Alcotest.fail "tagged state must park"

let test_fuse_lifts_to_ite () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  St.reg_set a 0 (Expr.word 1);
  St.reg_set b 0 (Expr.word 2);
  Symmem.write_u8 a.St.mem 0x3000 (Expr.byte 0xAA);
  open_or_fail pool base_cs a b;
  park_first pool a;
  let o = fold_on_last pool b in
  check_int "one survivor" 1 (List.length o.Merge.mo_requeue);
  check_int "one absorbed" 1 (List.length o.Merge.mo_absorbed);
  let s = List.hd o.Merge.mo_requeue in
  check_bool "survivor's tag popped" true (s.St.tags = []);
  (match St.reg_get s 0 with
   | { Expr.node = Expr.Ite _; _ } -> ()
   | e -> Alcotest.failf "r0 not lifted to ite: %s" (Expr.to_string e));
  (match Symmem.read_u8 s.St.mem 0x3000 with
   | { Expr.node = Expr.Ite _; _ } -> ()
   | e -> Alcotest.failf "store not lifted to ite: %s" (Expr.to_string e));
  (match s.St.constraints with
   | d :: rest ->
       check_bool "token base kept physically" true (rest == base_cs);
       check_bool "guards disjoined" true
         (match d.Expr.node with Expr.Binop (Expr.Or, _, _) -> true | _ -> false);
       check_bool "survivor's index slices its constraints" true
         (List.equal ( == ) (Indep.slice s.St.index d)
            (Indep.relevant s.St.constraints d))
   | [] -> Alcotest.fail "fused state has no constraints");
  let merged, ites, _, refused = Merge.stats pool in
  check_int "one fusion" 1 merged;
  check_bool "ites counted" true (ites >= 2);
  check_int "no refusals" 0 refused

let expect_refusal name pool o =
  check_int (name ^ ": both arms survive unfused") 2
    (List.length o.Merge.mo_requeue);
  check_int (name ^ ": nothing absorbed") 0 (List.length o.Merge.mo_absorbed);
  List.iter
    (fun (s : St.t) ->
      check_bool (name ^ ": tags popped") true (s.St.tags = []))
    o.Merge.mo_requeue;
  let merged, _, _, refused = Merge.stats pool in
  check_int (name ^ ": no fusion") 0 merged;
  check_bool (name ^ ": refusal counted") true (refused >= 1)

let test_refuse_divergent_pins () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  (* one arm carries a replay pin the other does not: fusing would let
     the unpinned arm's models leak into a pinned replay *)
  a.St.pinned <- [ Expr.tru ];
  open_or_fail pool base_cs a b;
  park_first pool a;
  expect_refusal "pins" pool (fold_on_last pool b)

let test_refuse_divergent_kernel_calls () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  open_or_fail pool base_cs a b;
  (* one arm performed a checker-visible kernel call inside the diamond;
     fusing would fold its hook-event stream into the other path *)
  Kstate.bump_kcall a.St.ks;
  park_first pool a;
  expect_refusal "kcalls" pool (fold_on_last pool b)

let test_refuse_wide_store_divergence () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  (* past the cost cap: lifting hundreds of bytes to ites would cost
     more than the fork subtree the fusion saves *)
  for i = 0 to 300 do
    Symmem.write_u8 a.St.mem (0x4000 + i) (Expr.byte 1)
  done;
  open_or_fail pool base_cs a b;
  park_first pool a;
  expect_refusal "stores" pool (fold_on_last pool b)

let test_dead_carrier_releases_token () =
  let pool = Merge.create () in
  let base_cs, a, b = sibling_pair () in
  open_or_fail pool base_cs a b;
  park_first pool b;
  (* the other arm crashes without reaching the merge point: its death
     must fold the token and hand the parked sibling back *)
  let o = Merge.note_dead pool a in
  check_int "parked sibling requeued" 1 (List.length o.Merge.mo_requeue);
  check_int "nothing absorbed" 0 (List.length o.Merge.mo_absorbed);
  check_bool "sibling's tag popped" true
    ((List.hd o.Merge.mo_requeue).St.tags = []);
  let merged, _, _, refused = Merge.stats pool in
  check_int "no fusion" 0 merged;
  check_int "no refusal either" 0 refused

(* --- solver stack under merged values --------------------------------------- *)

let test_qcache_commuted_renaming () =
  let q = Qcache.create () in
  let mk () = (Expr.fresh_var Expr.W32, Expr.fresh_var Expr.W32) in
  let vx1, vy1 = mk () in
  let d1 =
    Expr.or1
      (Expr.cmp Expr.Eq (Expr.var vx1) (Expr.word 3))
      (Expr.cmp Expr.Ltu (Expr.var vy1) (Expr.word 7))
  in
  Qcache.store_sat q [ d1 ]
    (fun v -> if v.Expr.id = vx1.Expr.id then 3 else 0);
  (* the same disjunction under fresh names with the disjuncts written
     the other way round — exactly what two workers see when merge-guard
     disjunctions are built in opposite arrival order; renaming alone
     would renumber the two forms differently *)
  let vx2, vy2 = mk () in
  let d2 =
    Expr.or1
      (Expr.cmp Expr.Ltu (Expr.var vy2) (Expr.word 7))
      (Expr.cmp Expr.Eq (Expr.var vx2) (Expr.word 3))
  in
  match Qcache.lookup_info q [ d2 ] with
  | Qcache.Exact_sat m, info ->
      check_bool "hit is a renaming" true info.Qcache.i_renamed;
      check_int "translated model satisfies the twin" 1 (Expr.eval m d2)
  | _ -> Alcotest.fail "commuted renaming of a disjunction must hit exactly"

let test_indep_ite_guard_edges () =
  let v () = Expr.var (Expr.fresh_var Expr.W32) in
  let x = v () and y = v () and z = v () and w = v () in
  let g = Expr.cmp Expr.Eq x (Expr.word 1) in
  (* a merged value: the guard's variable must link the arm variables
     into the same dependence group *)
  let c1 = Expr.cmp Expr.Eq (Expr.ite g y z) (Expr.word 5) in
  let c2 = Expr.cmp Expr.Ltu x (Expr.word 9) in
  let c3 = Expr.cmp Expr.Eq w (Expr.word 0) in
  check_int "guard variable joins the groups" 2
    (List.length (Indep.partition [ c1; c2; c3 ]));
  let slice = Indep.relevant [ c1; c2; c3 ] y in
  check_bool "slice follows the guard edge" true (List.memq c2 slice);
  check_bool "unrelated constraint stays out" true (not (List.memq c3 slice))

(* --- session-level parity ---------------------------------------------------- *)

let quick_cfg ?(merging = true) (e : Corpus.entry) =
  let cfg = Corpus.config e in
  let cfg =
    { cfg with Config.max_total_steps = 60_000; plateau_steps = 50_000 }
  in
  { cfg with
    Config.exec_config =
      { cfg.Config.exec_config with
        Exec.jobs = 1; state_merging = merging } }

let bug_keys (r : Session.result) =
  List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)

let test_deeploop_collapses_paths () =
  let e = Corpus.find "deeploop" in
  Solver.clear_cache ();
  let off = Session.run (quick_cfg ~merging:false e) in
  Solver.clear_cache ();
  let on = Session.run (quick_cfg ~merging:true e) in
  check_bool "same bugs" true (bug_keys off = bug_keys on);
  check_int "full coverage while merging" off.Session.r_covered_reachable
    on.Session.r_covered_reachable;
  let s_off = off.Session.r_stats.Exec.st_states_created
  and s_on = on.Session.r_stats.Exec.st_states_created in
  check_bool
    (Printf.sprintf "an order of magnitude fewer states (%d vs %d)" s_on
       s_off)
    true
    (s_on * 10 <= s_off);
  check_bool "fusions happened" true
    (on.Session.r_stats.Exec.st_merged_states > 0);
  check_int "no merge counters when off" 0
    (off.Session.r_stats.Exec.st_merged_states
     + off.Session.r_stats.Exec.st_merge_ites
     + off.Session.r_stats.Exec.st_merge_forks_avoided)

(* --- QCheck: randomized drivers, merged vs unmerged -------------------------- *)

(* Random polling drivers in the deeploop mold: a chain of diamonds over
   fresh device words folding two accumulators, optionally ending in a
   guarded null store. Merging must neither invent nor lose bugs, and
   the replay scripts it emits must still reproduce. *)
type spec = {
  sp_arms : (int * int * int) list;  (* per round: shape, mask, constant *)
  sp_bug : bool;
  sp_trigger : int;
}

let source_of spec =
  let buf = Buffer.create 512 in
  Buffer.add_string buf {|
    int chars[8];
    int g;
    int initialize(void) {
      int mmio;
      NdisMMapIoSpace(&mmio, 0);
      int a = 0;
      int b = 1;
      int v;
|};
  List.iter
    (fun (shape, mask, k) ->
      Buffer.add_string buf "      v = *(mmio + 0);\n";
      Buffer.add_string buf
        (match shape with
         | 0 ->
             Printf.sprintf
               "      if (v & %d) { a = a + (v & 0xFF); } else { a = a ^ %d; }\n"
               mask k
         | 1 ->
             Printf.sprintf
               "      if (v & %d) { b = b + %d; } else { b = b ^ (v & 0xFF); }\n"
               mask k
         | _ ->
             Printf.sprintf
               "      if (v & %d) { a = a + b; } else { b = b + %d; }\n" mask
               k))
    spec.sp_arms;
  Buffer.add_string buf "      g = a + b;\n";
  if spec.sp_bug then
    Buffer.add_string buf
      (Printf.sprintf
         {|      int probe = *(mmio + 4);
      if ((probe & 0xFF) == %d) { int z = 0; *z = a; }
|}
         spec.sp_trigger);
  Buffer.add_string buf {|      return 0;
    }
    int driver_entry(void) {
      chars[0] = initialize;
      return NdisMRegisterMiniport(chars);
    }
|};
  Buffer.contents buf

let gen_spec =
  QCheck.Gen.(
    let* rounds = int_range 1 4 in
    let* arms =
      list_repeat rounds
        (triple (int_bound 2) (int_range 1 255) (int_range 1 255))
    in
    let* bug = frequency [ (2, return true); (1, return false) ] in
    let* trigger = int_range 1 254 in
    return { sp_arms = arms; sp_bug = bug; sp_trigger = trigger })

let run_spec ?replay ~merging image =
  Solver.clear_cache ();
  Session.run
    (Config.make ~driver_name:"p" ~image ~driver_class:Config.Network
       ~workload:Config.[ W_initialize ]
       ~jobs:1 ~state_merging:merging ~max_total_steps:20_000
       ~plateau_steps:15_000 ?replay ())

let prop_merge_parity =
  QCheck.Test.make ~count:10
    ~name:"merged and unmerged runs report the same bugs; replays reproduce"
    (QCheck.make gen_spec ~print:source_of)
    (fun spec ->
      let image = Ddt_minicc.Codegen.compile ~name:"p" (source_of spec) in
      let off = run_spec ~merging:false image in
      let on = run_spec ~merging:true image in
      if bug_keys off <> bug_keys on then
        QCheck.Test.fail_reportf "bug sets diverge:@.off: %s@.on:  %s"
          (String.concat ", " (bug_keys off))
          (String.concat ", " (bug_keys on))
      else if spec.sp_bug && on.Session.r_bugs = [] then
        QCheck.Test.fail_reportf "seeded bug not found"
      else
        List.for_all
          (fun b ->
            let r = run_spec ~merging:true ~replay:b.Report.b_replay image in
            List.exists
              (fun b2 -> b2.Report.b_key = b.Report.b_key)
              r.Session.r_bugs
            || QCheck.Test.fail_reportf "replay lost bug %s" b.Report.b_key)
          on.Session.r_bugs)

let () =
  Alcotest.run "ddt_merge"
    [ ("pdom",
       [ Alcotest.test_case "diamond" `Quick test_pdom_diamond;
         Alcotest.test_case "nested diamond" `Quick test_pdom_nested_diamond;
         Alcotest.test_case "loop latch" `Quick test_pdom_loop_latch ]);
      ("pool",
       [ Alcotest.test_case "fuse lifts to ite" `Quick test_fuse_lifts_to_ite;
         Alcotest.test_case "refuse divergent pins" `Quick
           test_refuse_divergent_pins;
         Alcotest.test_case "refuse divergent kernel calls" `Quick
           test_refuse_divergent_kernel_calls;
         Alcotest.test_case "refuse wide store divergence" `Quick
           test_refuse_wide_store_divergence;
         Alcotest.test_case "dead carrier releases token" `Quick
           test_dead_carrier_releases_token ]);
      ("solver",
       [ Alcotest.test_case "qcache commuted renaming" `Quick
           test_qcache_commuted_renaming;
         Alcotest.test_case "indep ite guard edges" `Quick
           test_indep_ite_guard_edges ]);
      ("session",
       [ Alcotest.test_case "deeploop collapses paths" `Quick
           test_deeploop_collapses_paths;
         QCheck_alcotest.to_alcotest prop_merge_parity ]) ]
