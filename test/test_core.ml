(* Integration tests for ddt_core: sessions over purpose-built drivers
   exercising each checker and the session machinery (workload phases,
   annotations, replay). *)

open Ddt_core
module Report = Ddt_checkers.Report
module Exec = Ddt_symexec.Exec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let harness ~extra ~init_body ~query_body = Printf.sprintf {|
  const TAG = 0x54455354;
  int g_ctx;
  int chars[8];
%s
  int initialize(void) {
%s
    return 0;
  }
  int query(int oid, int buf, int len) {
%s
    return 4;
  }
  int driver_entry(void) {
    chars[0] = initialize;
    chars[1] = query;
    return NdisMRegisterMiniport(chars);
  }
|} extra init_body query_body

let run ?(workload = Config.[ W_initialize; W_query ]) ?exec_config src =
  let image = Ddt_minicc.Codegen.compile ~name:"t" src in
  let cfg =
    Config.make ~driver_name:"t" ~image ~driver_class:Config.Network
      ~workload ?exec_config ()
  in
  Ddt.test_driver cfg

let kinds r =
  List.map (fun b -> b.Report.b_kind) r.Session.r_bugs |> List.sort compare

let messages r = List.map (fun b -> b.Report.b_message) r.Session.r_bugs

let has_message r needle =
  List.exists
    (fun m ->
      let n = String.length needle and l = String.length m in
      let rec go i = i + n <= l && (String.sub m i n = needle || go (i + 1)) in
      go 0)
    (messages r)

(* --- memcheck rules ----------------------------------------------------- *)

let test_below_sp_access () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int arr[4];
    arr[0] = 1;
    int p = arr;
    int v = *(p - 64);   // below the stack pointer
    g_ctx = v;
  |}
         ~query_body:"")
  in
  check_bool "below-sp flagged" true (has_message r "below the stack pointer")

let test_use_after_free () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 32, TAG);
    if (status != 0) { return 1; }
    NdisFreeMemory(p, 32, 0);
    g_ctx = *(p + 0);    // use after free
  |}
         ~query_body:"")
  in
  check_bool "use-after-free flagged" true
    (List.mem Report.Memory_error (kinds r))

let test_kernel_handle_deref () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int cfg;
    int status = NdisOpenConfiguration(&cfg);
    if (status != 0) { return 1; }
    g_ctx = *(cfg + 0);  // handles are opaque to drivers
    NdisCloseConfiguration(cfg);
  |}
         ~query_body:"")
  in
  check_bool "handle deref flagged" true (has_message r "kernel handle")

let test_write_to_code () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int p = driver_entry;
    *(p + 0) = 0;        // self-patching driver
  |}
         ~query_body:"")
  in
  check_bool "code write flagged" true (has_message r "code section")

(* --- loopcheck ------------------------------------------------------------ *)

let test_infinite_loop () =
  let exec_config =
    { Exec.default_config with Exec.max_steps_per_state = 4_000 }
  in
  let r =
    run ~exec_config
      (harness ~extra:""
         ~init_body:{|
    int i = 1;
    while (i) { g_ctx = g_ctx + 1; }
  |}
         ~query_body:"")
  in
  check_bool "hang flagged" true (List.mem Report.Infinite_loop (kinds r))

(* --- lock discipline at entry exit ------------------------------------------ *)

let test_lock_held_at_exit () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    NdisAllocateSpinLock(chars + 28);
    NdisAcquireSpinLock(chars + 28);
  |}
         ~query_body:"")
  in
  check_bool "held lock flagged" true (has_message r "still held")

(* --- session mechanics -------------------------------------------------------- *)

let test_workload_sequencing () =
  (* The query phase must run against the post-initialize state. *)
  let r =
    run
      (harness ~extra:""
         ~init_body:{| g_ctx = 7; |}
         ~query_body:{|
    if (g_ctx != 7) {
      int p = 0;
      *(p + 0) = 1;    // would crash if init state were lost
    }
  |})
  in
  check_int "no bugs: state flowed across phases" 0
    (List.length r.Session.r_bugs);
  check_bool "both phases invoked" true (r.Session.r_invocations >= 2)

let test_symbolic_oid_sweep () =
  (* With annotations the OID is symbolic: the magic value is reached. *)
  let src =
    harness ~extra:""
      ~init_body:{| g_ctx = 1; |}
      ~query_body:{|
    if (oid == 0xBAD) {
      int p = 0;
      *(p + 0) = 1;
    }
  |}
  in
  let with_annot = run src in
  check_bool "symbolic OID reaches the magic value" true
    (List.mem Report.Segfault (kinds with_annot));
  let image = Ddt_minicc.Codegen.compile ~name:"t" src in
  let cfg =
    Config.make ~driver_name:"t" ~image ~driver_class:Config.Network
      ~workload:Config.[ W_initialize; W_query ]
      ~use_annotations:false ()
  in
  let without = Ddt.test_driver cfg in
  check_int "concrete OIDs miss it" 0 (List.length without.Session.r_bugs)

let test_timer_workload () =
  (* A timer armed during init fires in the timers phase. *)
  let src =
    harness
      ~extra:{|
  int tick(int ctx) {
    int p = 0;
    *(p + 0) = 1;      // crashes when the timer actually fires
    return 0;
  }
|}
      ~init_body:{|
    NdisMInitializeTimer(chars + 28, tick, 0);
    NdisMSetTimer(chars + 28, 50);
  |}
      ~query_body:""
  in
  let r = run ~workload:Config.[ W_initialize; W_timers ] src in
  check_bool "timer handler ran and crashed" true
    (List.mem Report.Segfault (kinds r))

(* Every dynamic bug of the corpus (15 over the seven drivers): its
   replay script, run as a session of its own, reports the bug's key.
   Concretized values come from models of the queried slice only, so
   this guards that the scripts built from them still drive each path. *)
let test_replay_reproduces () =
  let replayed = ref 0 in
  List.iter
    (fun (entry : Ddt_drivers.Corpus.entry) ->
      let cfg = Ddt_drivers.Corpus.config entry in
      let r = Ddt.test_driver cfg in
      List.iter
        (fun bug ->
          let r2 =
            Ddt.test_driver
              { cfg with Config.replay = Some bug.Report.b_replay }
          in
          incr replayed;
          check_bool
            (Printf.sprintf "replay reproduces %s" bug.Report.b_key)
            true
            (List.exists
               (fun b -> b.Report.b_key = bug.Report.b_key)
               r2.Session.r_bugs))
        r.Session.r_bugs)
    Ddt_drivers.Corpus.all;
  check_int "dynamic corpus bugs replayed" 15 !replayed

let test_coverage_counts_consistent () =
  let entry = Ddt_drivers.Corpus.find "pcnet" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  (match List.rev r.Session.r_coverage with
   | [] -> Alcotest.fail "no coverage points"
   | last :: _ ->
       check_bool "blocks covered <= total" true
         (last.Session.cp_blocks <= r.Session.r_total_blocks);
       check_bool "monotone time" true
         (let rec mono = function
            | (a : Session.coverage_point) :: (b :: _ as rest) ->
                a.Session.cp_time <= b.Session.cp_time && mono rest
            | _ -> true
          in
          mono r.Session.r_coverage))

(* --- apicheck rules ------------------------------------------------------- *)

let test_free_length_mismatch () =
  let r =
    run
      (harness ~extra:""
         ~init_body:{|
    int p;
    int status = NdisAllocateMemoryWithTag(&p, 64, TAG);
    if (status != 0) { return 1; }
    NdisFreeMemory(p, 32, 0);     // wrong length
  |}
         ~query_body:"")
  in
  check_bool "length mismatch flagged" true (has_message r "length 32")

let test_register_interrupt_without_attributes () =
  let src = {|
    int chars[8];
    int isr(int ctx) { return 0; }
    int initialize(void) {
      NdisMRegisterInterrupt(9);   // no NdisMSetAttributes first
      return 0;
    }
    int driver_entry(void) {
      chars[0] = initialize;
      chars[4] = isr;
      return NdisMRegisterMiniport(chars);
    }
  |} in
  let r = run ~workload:Config.[ W_initialize ] src in
  check_bool "missing attributes flagged" true
    (has_message r "null miniport context")

(* --- evidence artifacts ------------------------------------------------------ *)

let test_execution_tree () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  let tree = r.Session.r_tree in
  check_bool "tree covers many states" true (Ddt_trace.Tree.size tree > 20);
  check_bool "tree has depth (fork lineage)" true
    (Ddt_trace.Tree.depth tree >= 3);
  (* Every reported bug's state appears in the tree with a path to a root. *)
  List.iter
    (fun b ->
      let path = Ddt_trace.Tree.path_to_root tree b.Report.b_state_id in
      check_bool "bug state connected to a root" true (List.length path >= 1))
    r.Session.r_bugs

let test_crashdumps () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let cfg =
    { (Ddt_drivers.Corpus.config entry) with Config.collect_crashdumps = true }
  in
  let r = Ddt.test_driver cfg in
  check_bool "dumps produced for crashes" true (r.Session.r_crashdumps <> []);
  let _, d = List.hd r.Session.r_crashdumps in
  (* The dump round-trips through its binary format. *)
  let d' = Ddt_trace.Crashdump.of_bytes (Ddt_trace.Crashdump.to_bytes d) in
  check_bool "dump roundtrip" true (d' = d);
  check_bool "dump has pages" true (d.Ddt_trace.Crashdump.d_pages <> [])

(* --- §3.6 automated diagnosis ---------------------------------------------- *)

let test_diagnose_low_memory () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  let leak =
    List.find (fun b -> b.Report.b_kind = Report.Resource_leak)
      r.Session.r_bugs
  in
  let a = Ddt_checkers.Diagnose.analyze leak in
  check_bool "low-memory headline" true
    (a.Ddt_checkers.Diagnose.a_headline
     = "driver leaks resources in low-memory situations")

let test_diagnose_hardware_verdict () =
  let entry = Ddt_drivers.Corpus.find "rtl8029" in
  let r = Ddt.test_driver (Ddt_drivers.Corpus.config entry) in
  let race =
    List.find (fun b -> b.Report.b_kind = Report.Race_condition)
      r.Session.r_bugs
  in
  (* Under a permissive spec the race is reachable with conforming
     hardware... *)
  let a = Ddt_checkers.Diagnose.analyze race in
  check_bool "any hardware" true
    (a.Ddt_checkers.Diagnose.a_hardware = Ddt_checkers.Diagnose.Any_hardware);
  (* ...but if the vendor spec says the interrupt-status register reads 0
     until interrupts are enabled, the ISR's "(status & 3) != 0" entry
     condition is out of spec: the paper's §3.6 malfunction analysis. *)
  let strict =
    { Ddt_checkers.Diagnose.ds_registers = [ ("hw_bar0+0x0", 0, 0) ];
      ds_default = (0, 255) }
  in
  let a' = Ddt_checkers.Diagnose.analyze ~spec:strict race in
  check_bool "malfunction only under the strict spec" true
    (a'.Ddt_checkers.Diagnose.a_hardware
     = Ddt_checkers.Diagnose.Malfunction_only);
  (* A bug with no device dependence at all: the leak. *)
  let leak =
    List.find (fun b -> b.Report.b_kind = Report.Resource_leak)
      r.Session.r_bugs
  in
  let al = Ddt_checkers.Diagnose.analyze ~spec:strict leak in
  check_bool "leak path reads no device registers" true
    (al.Ddt_checkers.Diagnose.a_hardware
     = Ddt_checkers.Diagnose.No_hardware_dependence)

(* Shared-frontier parity on the whole corpus: a run on [jobs] worker
   domains reports the same sorted bug keys as the sequential run. With
   [store], the case runs again with a fresh persistent solver store
   behind the query cache the worker domains share. *)
module Corpus = Ddt_drivers.Corpus

let corpus_keys ?store_dir ~jobs (e : Corpus.entry) =
  let cfg = Corpus.config e in
  let cfg =
    { cfg with
      Config.store_dir;
      exec_config = { cfg.Config.exec_config with Exec.jobs } }
  in
  List.sort compare
    (List.map (fun b -> b.Report.b_key) (Ddt.test_driver cfg).Session.r_bugs)

let with_store_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddt_core_store_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let parity_case ?(store = false) ~jobs short () =
  let e = Corpus.find short in
  let seq = corpus_keys ~jobs:1 e in
  Alcotest.(check (list string))
    (Printf.sprintf "%s: %d-worker bug set = sequential" short jobs)
    seq (corpus_keys ~jobs e);
  if store then
    with_store_dir (fun dir ->
        Alcotest.(check (list string))
          (Printf.sprintf "%s: %d-worker bug set = sequential (fresh store)"
             short jobs)
          seq (corpus_keys ~store_dir:dir ~jobs e))

let () =
  Alcotest.run "ddt_core"
    [ ("memcheck rules",
       [ Alcotest.test_case "below-sp access" `Quick test_below_sp_access;
         Alcotest.test_case "use after free" `Quick test_use_after_free;
         Alcotest.test_case "kernel handle deref" `Quick
           test_kernel_handle_deref;
         Alcotest.test_case "write to code" `Quick test_write_to_code ]);
      ("liveness",
       [ Alcotest.test_case "infinite loop" `Quick test_infinite_loop;
         Alcotest.test_case "lock held at exit" `Quick
           test_lock_held_at_exit ]);
      ("session",
       [ Alcotest.test_case "workload sequencing" `Quick
           test_workload_sequencing;
         Alcotest.test_case "symbolic OID sweep" `Quick
           test_symbolic_oid_sweep;
         Alcotest.test_case "timer workload" `Quick test_timer_workload;
         Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
         Alcotest.test_case "coverage accounting" `Quick
           test_coverage_counts_consistent ]);
      ("apicheck",
       [ Alcotest.test_case "free length mismatch" `Quick
           test_free_length_mismatch;
         Alcotest.test_case "interrupt before attributes" `Quick
           test_register_interrupt_without_attributes ]);
      ("evidence",
       [ Alcotest.test_case "execution tree" `Quick test_execution_tree;
         Alcotest.test_case "crash dumps" `Quick test_crashdumps ]);
      ("usb",
       [ Alcotest.test_case "usb driver bugs found" `Quick (fun () ->
             let cfg =
               Config.make ~driver_name:"usbnic"
                 ~image:(Ddt_drivers.Usb_nic.image ())
                 ~driver_class:Config.Network ()
             in
             let r = Ddt.test_driver cfg in
             Alcotest.(check bool) "both usb bugs found" true
               (List.length r.Session.r_bugs >= 2);
             Alcotest.(check bool) "all under symbolic interrupt" true
               (List.for_all
                  (fun b -> b.Report.b_with_interrupt)
                  r.Session.r_bugs));
         Alcotest.test_case "fixed usb driver clean" `Quick (fun () ->
             let cfg =
               Config.make ~driver_name:"usbnic-fixed"
                 ~image:(Ddt_drivers.Usb_nic.fixed_image ())
                 ~driver_class:Config.Network ()
             in
             let r = Ddt.test_driver cfg in
             Alcotest.(check int) "clean" 0 (List.length r.Session.r_bugs));
         Alcotest.test_case "usb malfunction verdict" `Quick (fun () ->
             let cfg =
               Config.make ~driver_name:"usbnic"
                 ~image:(Ddt_drivers.Usb_nic.image ())
                 ~driver_class:Config.Network ()
             in
             let r = Ddt.test_driver cfg in
             let corruption =
               List.find
                 (fun b ->
                   String.length b.Report.b_key >= 4
                   && String.sub b.Report.b_key 0 4 = "mem:")
                 r.Session.r_bugs
             in
             let spec =
               { Ddt_checkers.Diagnose.ds_registers =
                   [ ("usb_ep1_len", 0, 63) ];
                 ds_default = (0, 255) }
             in
             Alcotest.(check bool) "malfunction only" true
               ((Ddt_checkers.Diagnose.analyze ~spec corruption)
                  .Ddt_checkers.Diagnose.a_hardware
                = Ddt_checkers.Diagnose.Malfunction_only)) ]);
      ("parallel",
       [ Alcotest.test_case "shared frontier deterministic across workers"
           `Quick (fun () ->
             (* The determinism guard: one session's fork tree explored
                by 1, 2 or 4 cooperating domains must report the same
                bug-key set. *)
             let keys jobs (e : Ddt_drivers.Corpus.entry) =
               let cfg =
                 Config.make ~driver_name:e.Ddt_drivers.Corpus.name
                   ~image:(e.Ddt_drivers.Corpus.image ())
                   ~driver_class:e.Ddt_drivers.Corpus.driver_class
                   ~descriptor:e.Ddt_drivers.Corpus.descriptor
                   ~registry:e.Ddt_drivers.Corpus.registry ~jobs ()
               in
               List.sort compare
                 (List.map
                    (fun b -> b.Report.b_key)
                    (Ddt.test_driver cfg).Session.r_bugs)
             in
             List.iter
               (fun name ->
                 let entry = Ddt_drivers.Corpus.find name in
                 let base = keys 1 entry in
                 Alcotest.(check bool)
                   (name ^ ": 1-worker run finds bugs")
                   true (base <> []);
                 List.iter
                   (fun jobs ->
                     Alcotest.(check (list string))
                       (Printf.sprintf "%s: %d-worker bug keys" name jobs)
                       base (keys jobs entry))
                   [ 2; 4 ])
               [ "rtl8029"; "pcnet" ]) ]);
      ("parity",
       List.map
         (fun (e : Corpus.entry) ->
           let short = e.Corpus.short in
           Alcotest.test_case
             (Printf.sprintf "%s 2-worker parity" short)
             `Quick
             (parity_case ~store:(List.mem short [ "rtl8029"; "pcnet" ])
                ~jobs:2 short))
         Corpus.all
       @ [ Alcotest.test_case "rtl8029 1-worker parity" `Quick
             (parity_case ~store:true ~jobs:1 "rtl8029");
           Alcotest.test_case "rtl8029 4-worker parity" `Quick
             (parity_case ~jobs:4 "rtl8029") ]);
      ("diagnose",
       [ Alcotest.test_case "low-memory classification" `Quick
           test_diagnose_low_memory;
         Alcotest.test_case "hardware verdict" `Quick
           test_diagnose_hardware_verdict ]) ]
