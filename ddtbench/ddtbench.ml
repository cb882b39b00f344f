(* The repository's end-to-end benchmark.

   Three closed-loop workloads, one client each: a session (or served
   job) starts when the previous one returns, and every pass runs each
   session of the workload once, in an order permuted by the seed.

     corpus  the seven buggy Table-1 drivers, in-process, jobs = 1
     small   ac97, audiopci, pcnet, rtl8029, buggy and fixed, in-process
     serve   the seven buggy drivers submitted one at a time to a
             [Serve.serve] daemon forked during set-up, two worker
             processes per job

   Every session's dynamic bug-key set is checked against the oracle
   recorded in [Oracle] for that workload, driver and variant.

   With [--trace 0] the run reports the end-to-end metrics. With
   [--trace 1] it alternates untraced and traced passes, times calls
   into each layer's public functions as spans, reads the counters the
   layers expose, then re-runs the corpus with each optional layer
   toggled, and writes every span to a trace file.

   Usage:
     ddtbench.exe --workload corpus|small|serve --seed N --seconds S
                  --trace 0|1 [--out DIR] [--commit H] [--tree H]
     ddtbench.exe --selftest [--workload W]   wrong oracle must bite
     ddtbench.exe --record-oracle             print a fresh oracle.ml *)

module Config = Ddt_core.Config
module Session = Ddt_core.Session
module Report_json = Ddt_core.Report_json
module Corpus = Ddt_drivers.Corpus
module Exec = Ddt_symexec.Exec
module Solver = Ddt_solver.Solver
module Serve = Ddt_dist.Serve
module Dist = Ddt_dist.Dist
module Icfg = Ddt_staticx.Icfg
module Sfind = Ddt_staticx.Sfind
module Pdom = Ddt_staticx.Pdom
module Report = Ddt_checkers.Report

let now = Unix.gettimeofday
let t_start = now ()

(* A session or served job that takes longer than this counts as
   failed (timed out), whatever its verdict. *)
let session_timeout_s = 60.0

let serve_workers = 2

(* ---- small helpers ------------------------------------------------- *)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* The highest of a few standard percentiles that still has at least
   ten samples above it (nearest rank), if any. *)
let tail_percentile l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  List.find_map
    (fun p ->
      if float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0 then
        let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
        Some (p, a.(max 0 (rank - 1)))
      else None)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let shuffle ~seed ~pass l =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* /proc files report length 0; read them line by line. A process can
   exit mid-read, so every error reads as no lines. *)
let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | l -> go (l :: acc)
        | exception End_of_file -> List.rev acc
        | exception Sys_error _ -> []
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go [])

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec count_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then n + count_files p else n + 1)
        0 names

(* ---- procfs: memory and CPU of this process and its daemon --------- *)

let status_kb pid field =
  let prefix = field ^ ":" in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Scanf.sscanf_opt
          (String.sub l (String.length prefix)
             (String.length l - String.length prefix))
          " %d" Fun.id
      else None)
    (read_lines (Printf.sprintf "/proc/%s/status" pid))
  |> Option.value ~default:0

(* Fields of /proc/<pid>/stat after the parenthesised command name. *)
let stat_fields pid =
  match read_lines (Printf.sprintf "/proc/%d/stat" pid) with
  | l :: _ -> (
      match String.rindex_opt l ')' with
      | Some i ->
          String.split_on_char ' '
            (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | None -> [])
  | [] -> []

(* utime + stime + cutime + cstime of [pid], in seconds (USER_HZ is 100
   on Linux). *)
let proc_cpu_s pid =
  match stat_fields pid with
  | _state :: _ppid :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: st
    :: cut :: cst :: _ ->
      float_of_int
        (List.fold_left (fun a s -> a + int_of_string s) 0 [ ut; st; cut; cst ])
      /. 100.0
  | _ -> 0.0

(* The pids in /proc not yet in [seen], each recorded with whether its
   parent is [pid]. A pid's parent is read once: the scan stays cheap
   enough to repeat every few milliseconds. *)
let note_new_children ~seen pid =
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some c when not (Hashtbl.mem seen c) -> (
          match stat_fields c with
          | _state :: ppid :: _ ->
              Hashtbl.replace seen c (int_of_string_opt ppid = Some pid)
          | [] | [ _ ] -> ())
      | _ -> ())
    (try Sys.readdir "/proc" with Sys_error _ -> [||])

(* Resets the peak-RSS mark (VmHWM) of a process to its current RSS, so
   the peak read later covers only what ran after the reset. *)
let reset_peak pid =
  try
    let oc = open_out (Printf.sprintf "/proc/%s/clear_refs" pid) in
    output_string oc "5";
    close_out oc;
    true
  with Sys_error _ -> false

(* Total and stolen CPU ticks of the machine (/proc/stat): the share a
   hypervisor gave to other guests explains run-to-run drift. *)
let machine_ticks () =
  match read_lines "/proc/stat" with
  | l :: _ -> (
      match List.filter_map int_of_string_opt (String.split_on_char ' ' l) with
      | (_ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _) as f ->
          (List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) f), steal)
      | _ -> (0, 0))
  | [] -> (0, 0)

let own_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime
  +. t.Unix.tms_cstime

(* ---- spans --------------------------------------------------------- *)

type span = {
  sp_id : int;
  sp_parent : int;        (* -1 for a root *)
  sp_session : int;       (* -1 outside any session *)
  sp_name : string;
  sp_start : float;       (* seconds since benchmark start *)
  sp_end : float;
}

let tracing = ref false
let spans : span list ref = ref []
let next_span = ref 0
let cur_parent = ref (-1)
let cur_session = ref (-1)

(* Per-pass accumulator: every span adds its duration to
   "<name>_s", and counters are added under their metric names. *)
let cur_acc : (string, float) Hashtbl.t option ref = ref None

let add k v =
  match !cur_acc with
  | Some t ->
      Hashtbl.replace t k (v +. Option.value ~default:0.0 (Hashtbl.find_opt t k))
  | None -> ()

let upmax k v =
  match !cur_acc with
  | Some t ->
      Hashtbl.replace t k
        (Float.max v (Option.value ~default:v (Hashtbl.find_opt t k)))
  | None -> ()

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_span in
    incr next_span;
    let parent = !cur_parent in
    cur_parent := id;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = now () in
        cur_parent := parent;
        add (name ^ "_s") (t1 -. t0);
        spans :=
          { sp_id = id; sp_parent = parent; sp_session = !cur_session;
            sp_name = name; sp_start = t0 -. t_start; sp_end = t1 -. t_start }
          :: !spans)
      f
  end

(* Sessions of the traced run: id -> (driver key, phase). *)
let sessions : (int * string * string) list ref = ref []
let next_session = ref 0

let in_session ~key ~phase f =
  if not !tracing then f ()
  else begin
    let id = !next_session in
    incr next_session;
    sessions := (id, key, phase) :: !sessions;
    cur_session := id;
    Fun.protect ~finally:(fun () -> cur_session := -1) f
  end

(* ---- workloads ----------------------------------------------------- *)

type item = { entry : Corpus.entry; fixed : bool; key : string }

let item_of (e : Corpus.entry) fixed =
  { entry = e; fixed;
    key = (if fixed then e.Corpus.short ^ "-fixed" else e.Corpus.short) }

let small_drivers = [ "ac97"; "audiopci"; "pcnet"; "rtl8029" ]
let workloads = [ "corpus"; "small"; "serve" ]

let items_of = function
  | "corpus" | "serve" -> List.map (fun e -> item_of e false) Corpus.all
  | "small" ->
      List.concat_map
        (fun s ->
          let e = Corpus.find s in
          [ item_of e false; item_of e true ])
        small_drivers
  | w -> invalid_arg ("unknown workload " ^ w)

let source_of it =
  let open Ddt_drivers in
  let buggy, fixed =
    match it.entry.Corpus.short with
    | "pro1000" -> (Pro1000.source, Pro1000.fixed_source)
    | "pro100" -> (Pro100.source, Pro100.fixed_source)
    | "ac97" -> (Ac97.source, Ac97.fixed_source)
    | "audiopci" -> (Audiopci.source, Audiopci.fixed_source)
    | "pcnet" -> (Pcnet.source, Pcnet.fixed_source)
    | "rtl8029" -> (Rtl8029.source, Rtl8029.fixed_source)
    | "deeploop" -> (Deeploop.source, Deeploop.fixed_source)
    | s -> invalid_arg ("no source for " ^ s)
  in
  if it.fixed then fixed else buggy

(* The configuration [Corpus.config] builds, over a given image, with
   the layer toggles of the layer-off legs. *)
let make_config ?jobs ?solver_incr ?dbt ?state_merging ?checkpoint_every
    ?checkpoint_path ?store_dir it image =
  let e = it.entry in
  Config.make ~driver_name:e.Corpus.name ~image
    ~driver_class:e.Corpus.driver_class ~descriptor:e.Corpus.descriptor
    ~registry:e.Corpus.registry ?jobs ?solver_incr ?dbt ?state_merging
    ?checkpoint_every ?checkpoint_path ?store_dir ()

(* ---- oracle -------------------------------------------------------- *)

let oracle = ref Oracle.table

(* The same table with every bug-key set perturbed: a check that is
   known to bite must fail every session against it. *)
let wrong_oracle table =
  List.map
    (fun (k, (e : Oracle.expect)) ->
      let bugs =
        match e.Oracle.bugs with [] -> [ "ddtbench-bogus-key" ] | _ :: r -> r
      in
      (k, { e with Oracle.bugs }))
    table

let verdict table ~workload it keys =
  match List.assoc_opt (workload, it.key) table with
  | None -> Some "no oracle entry"
  | Some (e : Oracle.expect) when e.Oracle.bugs = keys -> None
  | Some e ->
      Some
        (Printf.sprintf "bug keys [%s], oracle [%s]" (String.concat " " keys)
           (String.concat " " e.Oracle.bugs))

(* ---- one session or job -------------------------------------------- *)

type outcome = {
  o_item : item;
  o_wall : float;
  o_keys : string list;
  o_covered : int;
  o_reachable : int;
  o_fail : string option;
}

let coverage_pct o =
  if o.o_reachable = 0 then 0.0
  else 100.0 *. float_of_int o.o_covered /. float_of_int o.o_reachable

let failed_outcome it wall why =
  { o_item = it; o_wall = wall; o_keys = []; o_covered = 0; o_reachable = 0;
    o_fail = Some why }

let finish ~workload it wall keys covered reachable =
  let fail =
    if wall > session_timeout_s then Some "timed out"
    else verdict !oracle ~workload it keys
  in
  { o_item = it; o_wall = wall; o_keys = keys; o_covered = covered;
    o_reachable = reachable; o_fail = fail }

let contracts_model (it : item) =
  match it.entry.Corpus.driver_class with
  | Config.Network ->
      (Ddt_annot.Ndis_annotations.contracts, Ddt_annot.Ndis_annotations.model)
  | Config.Audio ->
      (Ddt_annot.Portcls_annotations.contracts,
       Ddt_annot.Portcls_annotations.model)

let record_counters (r : Session.result) (g0 : Gc.stat) (g1 : Gc.stat) =
  let i n = float_of_int n in
  let st = r.Session.r_stats in
  let sv = st.Exec.st_solver in
  add "session.invocations" (i r.Session.r_invocations);
  add "session.kcalls" (i r.Session.r_kcalls);
  add "session.paths_to_first_bug"
    (i (Option.value ~default:0 r.Session.r_paths_to_first_bug));
  add "symexec.steps" (i st.Exec.st_total_steps);
  add "symexec.states" (i st.Exec.st_states_created);
  add "symexec.dropped" (i st.Exec.st_states_dropped);
  upmax "symexec.live_words" (i st.Exec.st_live_words);
  upmax "symexec.cow_depth" (i st.Exec.st_max_cow_depth);
  add "merge.fused" (i st.Exec.st_merged_states);
  add "merge.refusals" (i st.Exec.st_merge_refusals);
  add "merge.ites" (i st.Exec.st_merge_ites);
  add "merge.forks_avoided" (i st.Exec.st_merge_forks_avoided);
  add "solver.queries" (i sv.Solver.s_queries);
  add "solver.group_solves" (i sv.Solver.s_group_solves);
  add "solver.hits" (i (Solver.cache_hits sv));
  add "solver.misses" (i sv.Solver.s_cache_misses);
  add "solver.bitblasts" (i sv.Solver.s_bitblast_solves);
  add "solver.interval_solves" (i sv.Solver.s_interval_solves);
  add "solver.incr_queries" (i sv.Solver.s_incr_queries);
  add "solver.incr_model_hits" (i sv.Solver.s_incr_model_hits);
  add "solver.incr_rebuilds" (i sv.Solver.s_incr_rebuilds);
  add "solver.exhaustions" (i sv.Solver.s_exhaustions);
  add "dbt.compiled_steps" (i st.Exec.st_dbt_compiled_steps);
  add "dbt.bails" (i st.Exec.st_dbt_guard_bails);
  add "dbt.decompiled" (i st.Exec.st_dbt_decompiled);
  add "gc.minor_mwords" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
  add "gc.major_collections"
    (i (g1.Gc.major_collections - g0.Gc.major_collections));
  upmax "gc.top_heap_mb"
    (i g1.Gc.top_heap_words *. i (Sys.word_size / 8) /. 1048576.0)

let bug_keys bugs = List.sort_uniq compare bugs

(* In-process: [Session.run]. A traced session also times the static
   layers as separate calls on the session's image and serializes the
   schema report. *)
let run_inproc ~workload ~phase (it, (cfg : Config.t)) =
  in_session ~key:it.key ~phase (fun () ->
      span "session" (fun () ->
          if !tracing then begin
            let contracts, model = contracts_model it in
            let icfg =
              span "staticx.icfg" (fun () -> Icfg.build cfg.Config.image)
            in
            ignore (span "staticx.sfind" (fun () ->
                Sfind.analyze ~contracts ~model icfg));
            ignore (span "staticx.pdom" (fun () -> Pdom.compute icfg))
          end;
          let g0 = Gc.quick_stat () in
          let t0 = now () in
          match span "core.session" (fun () -> Session.run cfg) with
          | exception e ->
              failed_outcome it (now () -. t0)
                ("raised " ^ Printexc.to_string e)
          | r ->
              let wall = now () -. t0 in
              if !tracing then begin
                record_counters r g0 (Gc.quick_stat ());
                ignore (span "core.report" (fun () ->
                    Report_json.to_string (Report_json.of_result r)))
              end;
              finish ~workload it wall
                (bug_keys (List.map (fun b -> b.Report.b_key) r.Session.r_bugs))
                r.Session.r_covered_reachable r.Session.r_reachable_blocks))

(* The number after ["key":] in a one-line JSON object. *)
let json_number line key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length pat and m = String.length line in
  let rec find i =
    if i + n > m then None
    else if String.sub line i n = pat then
      let j = ref (i + n) in
      while
        !j < m
        && match line.[!j] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false
      do incr j done;
      float_of_string_opt (String.sub line (i + n) (!j - i - n))
    else find (i + 1)
  in
  find 0

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Served: one [Serve.submit] round trip; the verdict is read from the
   streamed schema report. *)
let run_served ~workload ~phase ~sock it =
  in_session ~key:it.key ~phase (fun () ->
      span "session" (fun () ->
          let t0 = now () in
          let job =
            { Serve.jq_driver = it.entry.Corpus.short; jq_fixed = it.fixed;
              jq_workers = serve_workers }
          in
          let resp =
            span "serve.submit" (fun () -> Serve.submit ~socket_path:sock job)
          in
          let wall = now () -. t0 in
          match resp with
          | Error e -> failed_outcome it wall ("submit: " ^ e)
          | Ok lines -> (
              match
                ( List.find_opt (fun l -> contains l "\"serve\":\"error\"") lines,
                  List.find_opt (fun l -> contains l "\"serve\":\"done\"") lines,
                  List.rev lines )
              with
              | Some err, _, _ -> failed_outcome it wall err
              | None, Some done_line, last :: _ -> (
                  let field k = Option.value ~default:0.0 (json_number done_line k) in
                  let job_s = field "wall" in
                  add "dist.job_s" job_s;
                  add "serve.overhead_s" (wall -. job_s);
                  add "dist.shipped" (field "shipped");
                  add "dist.steals" (field "steals");
                  add "dist.reships" (field "reships");
                  match Report_json.of_string last with
                  | None -> failed_outcome it wall "unparsable report"
                  | Some s ->
                      finish ~workload it wall
                        (bug_keys
                           (List.map (fun b -> b.Report_json.jb_key)
                              s.Report_json.j_bugs))
                        s.Report_json.j_covered_reachable
                        s.Report_json.j_reachable_blocks)
              | None, _, _ -> failed_outcome it wall "no completion line")))

(* ---- the serve daemon ---------------------------------------------- *)

type daemon = { d_pid : int; d_sock : string }

let start_daemon ~sock cfgs =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let resolve (j : Serve.job) =
        match
          List.find_opt
            (fun (it, _) ->
              it.entry.Corpus.short = j.Serve.jq_driver
              && it.fixed = j.Serve.jq_fixed)
            cfgs
        with
        | Some (_, cfg) -> Ok cfg
        | None -> Error ("unknown driver " ^ j.Serve.jq_driver)
      in
      ignore (Serve.serve ~socket_path:sock ~resolve ());
      Unix._exit 0
  | pid ->
      (* [serve] binds then listens at once; wait for the socket. *)
      let deadline = now () +. 10.0 in
      while (not (Sys.file_exists sock)) && now () < deadline do
        Unix.sleepf 0.002
      done;
      Unix.sleepf 0.01;
      { d_pid = pid; d_sock = sock }

let stop_daemon d =
  (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] d.d_pid) with Unix.Unix_error _ -> ());
  try Unix.unlink d.d_sock with Unix.Unix_error _ -> ()

(* Peak memory of the daemon's worker processes, sampled from a thread
   while the client waits on a job. Per job, the peaks (VmHWM) of the
   workers seen are summed; [take] returns the largest such sum since
   the previous [take]. *)
module Worker_peak = struct
  type t = {
    daemon : int;
    running : bool Atomic.t;
    job : int Atomic.t;
    lock : Mutex.t;
    peaks : (int * int, int) Hashtbl.t;  (* (job, pid) -> kB, under [lock] *)
    seen : (int, bool) Hashtbl.t;        (* pid -> is a daemon child *)
    mutable thread : Thread.t option;
  }

  let sample t =
    let j = Atomic.get t.job in
    note_new_children ~seen:t.seen t.daemon;
    let gone = ref [] in
    Hashtbl.iter
      (fun c is_child ->
        if is_child then
          match status_kb (string_of_int c) "VmHWM" with
          | 0 -> gone := c :: !gone
          | kb ->
              Mutex.protect t.lock (fun () ->
                  let prev = Option.value ~default:0 (Hashtbl.find_opt t.peaks (j, c)) in
                  if kb > prev then Hashtbl.replace t.peaks (j, c) kb))
      t.seen;
    List.iter (fun c -> Hashtbl.replace t.seen c false) !gone

  let start daemon =
    let t =
      { daemon; running = Atomic.make true; job = Atomic.make 0;
        lock = Mutex.create (); peaks = Hashtbl.create 64;
        seen = Hashtbl.create 256; thread = None }
    in
    let loop () =
      while Atomic.get t.running do
        sample t;
        Thread.delay 0.01
      done
    in
    t.thread <- Some (Thread.create loop ());
    t

  let next_job t = Atomic.incr t.job

  let take t =
    Mutex.protect t.lock (fun () ->
        let per_job = Hashtbl.create 16 in
        Hashtbl.iter
          (fun (j, _) kb ->
            Hashtbl.replace per_job j
              (kb + Option.value ~default:0 (Hashtbl.find_opt per_job j)))
          t.peaks;
        Hashtbl.reset t.peaks;
        Hashtbl.fold (fun _ kb m -> max kb m) per_job 0)

  let stop t =
    Atomic.set t.running false;
    Option.iter Thread.join t.thread
end

(* ---- passes -------------------------------------------------------- *)

type target = In_process | Served of daemon

type pass = {
  p_wall : float;
  p_cpu : float;
  p_outcomes : outcome list;
  p_acc : (string, float) Hashtbl.t;  (* traced passes only *)
}

let run_pass ~workload ~phase ~seed ~pass_no ?peak target cfgs =
  let acc = Hashtbl.create 64 in
  if !tracing then cur_acc := Some acc;
  let cpu0 =
    own_cpu_s ()
    +. (match target with Served d -> proc_cpu_s d.d_pid | In_process -> 0.0)
  in
  let t0 = now () in
  let outcomes =
    List.map
      (fun (it, cfg) ->
        Option.iter Worker_peak.next_job peak;
        match target with
        | In_process -> run_inproc ~workload ~phase (it, cfg)
        | Served d -> run_served ~workload ~phase ~sock:d.d_sock it)
      (shuffle ~seed ~pass:pass_no cfgs)
  in
  let wall = now () -. t0 in
  let cpu =
    own_cpu_s ()
    +. (match target with Served d -> proc_cpu_s d.d_pid | In_process -> 0.0)
    -. cpu0
  in
  cur_acc := None;
  { p_wall = wall; p_cpu = cpu; p_outcomes = outcomes; p_acc = acc }

(* ---- set-up -------------------------------------------------------- *)

type setup = {
  s_cfgs : (item * Config.t) list;
  s_daemon : daemon option;
  s_seconds : float;
  s_warm : pass;
}

(* Compile every image of the workload from source, build its
   configurations, fork the daemon ([serve]), and run one warm-up
   pass. *)
let setup ~workload ~seed ~out ~index =
  let t0 = now () in
  let acc = Hashtbl.create 8 in
  if !tracing then cur_acc := Some acc;
  let cfgs =
    List.map
      (fun it ->
        let image =
          span "minicc.compile" (fun () ->
              Ddt_minicc.Codegen.compile ~name:it.key (source_of it))
        in
        (it, make_config it image))
      (items_of workload)
  in
  cur_acc := None;
  let daemon =
    if workload = "serve" then
      Some
        (start_daemon
           ~sock:
             (Filename.concat out
                (Printf.sprintf "d%d-%d.sock" (Unix.getpid ()) index))
           cfgs)
    else None
  in
  let target = match daemon with Some d -> Served d | None -> In_process in
  let warm = run_pass ~workload ~phase:"warm-up" ~seed ~pass_no:0 target cfgs in
  Hashtbl.iter (fun k v -> Hashtbl.replace warm.p_acc k v) acc;
  { s_cfgs = cfgs; s_daemon = daemon; s_seconds = now () -. t0; s_warm = warm }

(* ---- layer-off legs (traced run) ----------------------------------- *)

let run_leg_session ~phase f (it : item) =
  in_session ~key:it.key ~phase (fun () ->
      span phase (fun () ->
          let t0 = now () in
          match f () with
          | exception e ->
              failed_outcome it (now () -. t0) ("raised " ^ Printexc.to_string e)
          | (r : Session.result) ->
              finish ~workload:"corpus" it (now () -. t0)
                (bug_keys (List.map (fun b -> b.Report.b_key) r.Session.r_bugs))
                r.Session.r_covered_reachable r.Session.r_reachable_blocks))

(* A layer-off leg: its metric, whether the toggle turns a default-on
   layer off (the net is then wall off minus wall on; otherwise the
   toggle turns an optional layer on and the net is base minus leg), and
   how to run one driver with the toggle. *)
type leg = {
  l_metric : string;
  l_phase : string;
  l_turns_off : bool;
  l_run : dir:string -> item -> Ddt_dvm.Image.t -> Session.result;
}

let legs =
  let session ?state_merging ?solver_incr ?dbt ?jobs () ~dir:_ it image =
    Session.run (make_config ?state_merging ?solver_incr ?dbt ?jobs it image)
  in
  [ { l_metric = "merge.net_s"; l_phase = "leg.merge_off"; l_turns_off = true;
      l_run = session ~state_merging:false () };
    { l_metric = "solver.incr_net_s"; l_phase = "leg.solver_incr_off";
      l_turns_off = true; l_run = session ~solver_incr:false () };
    { l_metric = "dbt.net_s"; l_phase = "leg.dbt_off"; l_turns_off = true;
      l_run = session ~dbt:false () };
    { l_metric = "core.ckpt_net_s"; l_phase = "leg.checkpoint"; l_turns_off = false;
      l_run =
        (fun ~dir it image ->
          let path = Filename.concat dir (it.key ^ ".ckpt") in
          let r =
            Session.run
              (make_config ~checkpoint_every:20_000 ~checkpoint_path:path it image)
          in
          (try Sys.remove path with Sys_error _ -> ());
          r) };
    { l_metric = "dist.w2_net_s"; l_phase = "leg.dist_w2"; l_turns_off = false;
      l_run =
        (fun ~dir:_ it image -> fst (Dist.run ~workers:2 (make_config it image)))
    } ]

let store_leg = "solver.store_net_s"

(* Forking [Dist] workers needs a single domain, so this leg runs after
   every other. *)
let jobs2_leg =
  { l_metric = "parallel.j2_net_s"; l_phase = "leg.jobs2"; l_turns_off = false;
    l_run = (fun ~dir:_ it image -> Session.run (make_config ~jobs:2 it image)) }

(* Re-runs every corpus driver once per leg. Per driver, the legs run
   back to back between two default runs, whose mean is the base, so a
   drift in machine speed hits both sides alike. Returns the per-driver
   nets (seconds), the outcomes for the oracle, and how many passes
   warmed the store. *)
let run_legs ~seed ~out images =
  let dir = Filename.concat out (Printf.sprintf "legs-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  let outcomes = ref [] in
  let walls = Hashtbl.create 64 in
  let run phase it f =
    let o = run_leg_session ~phase f it in
    outcomes := o :: !outcomes;
    Hashtbl.replace walls (phase, it.key)
      (o.o_wall :: Option.value ~default:[] (Hashtbl.find_opt walls (phase, it.key)));
    o
  in
  let base_run it image =
    ignore (run "leg.base" it (fun () -> Session.run (make_config it image)))
  in
  let order = shuffle ~seed ~pass:1000 images in
  List.iter
    (fun (it, image) ->
      base_run it image;
      List.iter
        (fun l -> ignore (run l.l_phase it (fun () -> l.l_run ~dir it image)))
        legs;
      base_run it image)
    order;
  (* Warm the store until a whole pass adds no entry file; each
     driver's last run, which added none, is its steady-state time. *)
  let store_dir = Filename.concat dir "store" in
  let warm_passes = ref 0 in
  let pending = ref order in
  while !pending <> [] && !warm_passes < 12 do
    incr warm_passes;
    pending :=
      List.filter
        (fun (it, image) ->
          let before = count_files store_dir in
          Hashtbl.remove walls ("leg.store_warm", it.key);
          ignore (run "leg.store_warm" it (fun () ->
              Session.run (make_config ~store_dir it image)));
          count_files store_dir > before)
        !pending
  done;
  List.iter
    (fun (it, image) ->
      ignore (run jobs2_leg.l_phase it (fun () -> jobs2_leg.l_run ~dir it image)))
    order;
  rm_rf dir;
  let wall phase key =
    mean (Option.value ~default:[] (Hashtbl.find_opt walls (phase, key)))
  in
  let net metric phase turns_off =
    ( metric,
      List.map
        (fun (it, _) ->
          let b = wall "leg.base" it.key and w = wall phase it.key in
          (it.key, if turns_off then w -. b else b -. w))
        (List.sort (fun (a, _) (b, _) -> compare a.key b.key) order) )
  in
  let nets =
    List.map (fun l -> net l.l_metric l.l_phase l.l_turns_off) (legs @ [ jobs2_leg ])
    @ [ net store_leg "leg.store_warm" false ]
  in
  (nets, List.rev !outcomes, !warm_passes)

(* ---- output -------------------------------------------------------- *)

let meta ~workload ~seed ~seconds ~trace ~commit ~tree =
  obj
    [ ("workload", json_string workload);
      ("seed", string_of_int seed);
      ("seconds", num seconds);
      ("trace", string_of_int trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("commit", json_string commit);
      ("tree", json_string tree) ]

let print_line s =
  print_string s;
  print_newline ()

let detail ~name ~unit ~value ~samples ?pctl ?(each = []) () =
  print_line
    (obj
       ([ ("metric", json_string name); ("value", num value);
          ("unit", json_string unit); ("samples", string_of_int samples) ]
       @ (match pctl with
         | Some (Some (p, v)) -> [ ("pctl", obj [ ("p", num p); ("value", num v) ]) ]
         | Some None -> [ ("pctl", "null") ]
         | None -> [])
       @
       if each = [] then []
       else [ ("each", "[" ^ String.concat "," (List.map num each) ^ "]") ]))

let result_line ~correct ~attempted ~failed metrics =
  print_line
    (obj
       [ ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           obj
             (List.map
                (fun (n, v, u) -> (n, obj [ ("value", num v); ("unit", json_string u) ]))
                metrics) ) ])

let report_failures outcomes =
  List.iter
    (fun o ->
      match o.o_fail with
      | Some why -> Printf.eprintf "FAIL %s: %s\n%!" o.o_item.key why
      | None -> ())
    outcomes

(* Self time: a span's duration minus what its children cover. *)
let write_trace ~path ~meta_json ~legs =
  let all = List.rev !spans in
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_time s.sp_parent
          (s.sp_end -. s.sp_start
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.sp_parent)))
    all;
  let driver_of = Hashtbl.create 64 in
  List.iter
    (fun (id, key, phase) -> Hashtbl.replace driver_of id (key, phase))
    !sessions;
  (* per driver and phase -> span name -> (total, self, count) *)
  let split = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt driver_of s.sp_session with
      | None -> ()
      | Some (key, phase) ->
          let d = s.sp_end -. s.sp_start in
          let self =
            d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.sp_id)
          in
          let k = (key, phase, s.sp_name) in
          let t, sf, c =
            Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt split k)
          in
          Hashtbl.replace split k (t +. d, sf +. self, c + 1))
    all;
  let split_rows =
    Hashtbl.fold
      (fun (key, phase, name) (t, sf, c) acc ->
        obj
          [ ("driver", json_string key); ("phase", json_string phase);
            ("span", json_string name); ("total_s", num t); ("self_s", num sf);
            ("count", string_of_int c) ]
        :: acc)
      split []
    |> List.sort compare
  in
  let oc = open_out path in
  output_string oc "{\"meta\":";
  output_string oc meta_json;
  output_string oc ",\n\"sessions\":[";
  output_string oc
    (String.concat ",\n"
       (List.rev_map
          (fun (id, key, phase) ->
            obj [ ("id", string_of_int id); ("driver", json_string key);
                  ("phase", json_string phase) ])
          !sessions));
  output_string oc "],\n\"per_driver\":[";
  output_string oc (String.concat ",\n" split_rows);
  output_string oc "],\n\"legs\":";
  output_string oc
    (obj
       (List.map
          (fun (m, per) -> (m, obj (List.map (fun (k, v) -> (k, num v)) per)))
          legs));
  output_string oc ",\n\"spans\":[";
  output_string oc
    (String.concat ",\n"
       (List.map
          (fun s ->
            obj
              [ ("id", string_of_int s.sp_id); ("parent", string_of_int s.sp_parent);
                ("session", string_of_int s.sp_session);
                ("name", json_string s.sp_name); ("start", num s.sp_start);
                ("end", num s.sp_end) ])
          all));
  output_string oc "]}\n";
  close_out oc

(* ---- modes --------------------------------------------------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : int;
  out : string;
  commit : string;
  tree : string;
}

let failures outcomes = List.length (List.filter (fun o -> o.o_fail <> None) outcomes)

(* Whether the oracle check bites: the warm-up's own bug sets must fail
   against a perturbed oracle. *)
let oracle_bites ~workload outcomes =
  let wrong = wrong_oracle !oracle in
  outcomes <> []
  && List.for_all
       (fun o -> verdict wrong ~workload o.o_item o.o_keys <> None)
       outcomes

let untraced o =
  let n_setups = 3 in
  let setups =
    List.init n_setups (fun index ->
        let s = setup ~workload:o.workload ~seed:o.seed ~out:o.out ~index in
        (* Only the last daemon serves the timed passes. *)
        (if index < n_setups - 1 then Option.iter stop_daemon s.s_daemon);
        s)
  in
  let last = List.nth setups (n_setups - 1) in
  let bites = oracle_bites ~workload:o.workload last.s_warm.p_outcomes in
  let target, peak =
    match last.s_daemon with
    | Some d -> (Served d, Some (Worker_peak.start d.d_pid))
    | None -> (In_process, None)
  in
  let daemon_pid = Option.map (fun d -> string_of_int d.d_pid) last.s_daemon in
  (* Peak RSS per pass: the marks are reset before every pass and read
     after it, for this process, the daemon and (sampled) its workers. *)
  let reset_peaks () =
    List.for_all reset_peak ("self" :: Option.to_list daemon_pid)
  in
  let read_peaks () =
    ( status_kb "self" "VmHWM",
      (match daemon_pid with Some d -> status_kb d "VmHWM" | None -> 0),
      match peak with Some w -> Worker_peak.take w | None -> 0 )
  in
  let peak_reset = reset_peaks () in
  let ticks0 = machine_ticks () in
  let t_end = now () +. o.seconds in
  let rec loop n acc =
    if n > 1 && now () >= t_end then List.rev acc
    else
      let p =
        run_pass ~workload:o.workload ~phase:"timed" ~seed:o.seed ~pass_no:n ?peak
          target last.s_cfgs
      in
      let kb = read_peaks () in
      ignore (reset_peaks ());
      loop (n + 1) ((p, kb) :: acc)
  in
  let passes, peaks = List.split (loop 1 []) in
  let ticks1 = machine_ticks () in
  let steal_frac =
    float_of_int (snd ticks1 - snd ticks0)
    /. float_of_int (max 1 (fst ticks1 - fst ticks0))
  in
  Option.iter Worker_peak.stop peak;
  let med f = median (List.map (fun k -> float_of_int (f k)) peaks) in
  let client_kb = med (fun (c, _, _) -> c)
  and daemon_kb = med (fun (_, d, _) -> d)
  and worker_kb = med (fun (_, _, w) -> w) in
  let peak_mb = med (fun (c, d, w) -> c + d + w) /. 1024.0 in
  Option.iter stop_daemon last.s_daemon;
  let timed = List.concat_map (fun p -> p.p_outcomes) passes in
  let warm = List.concat_map (fun s -> s.s_warm.p_outcomes) setups in
  let all = warm @ timed in
  report_failures all;
  let attempted = List.length all and failed = failures all in
  let walls = List.map (fun p -> p.p_wall) passes in
  let cpus = List.map (fun p -> p.p_cpu) passes in
  let setup_s = List.map (fun s -> s.s_seconds) setups in
  let cov = List.map coverage_pct timed in
  let sess = List.map (fun o -> o.o_wall) timed in
  let fail_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  let n = List.length passes in
  detail ~name:"wall_s" ~unit:"s" ~value:(median walls) ~samples:n
    ~pctl:(tail_percentile walls) ~each:walls ();
  detail ~name:"cpu_s" ~unit:"s" ~value:(median cpus) ~samples:n
    ~pctl:(tail_percentile cpus) ~each:cpus ();
  detail ~name:"setup_s" ~unit:"s" ~value:(median setup_s) ~samples:n_setups
    ~each:setup_s ();
  detail ~name:"peak_rss_mb" ~unit:"MB" ~value:peak_mb ~samples:n ();
  print_line
    (obj [ ("peak_rss_kb_median", obj [ ("client", num client_kb);
                                        ("daemon", num daemon_kb);
                                        ("workers", num worker_kb) ]) ]);
  detail ~name:"coverage_pct" ~unit:"%" ~value:(mean cov) ~samples:(List.length cov) ();
  detail ~name:"fail_frac" ~unit:"frac" ~value:fail_frac ~samples:attempted ();
  detail ~name:"session_s" ~unit:"s" ~value:(median sess)
    ~samples:(List.length sess) ~pctl:(tail_percentile sess) ();
  print_line
    (obj [ ("oracle_bites", string_of_bool bites);
           ("peak_reset_after_setup", string_of_bool peak_reset);
           ("machine_steal_frac", num steal_frac) ]);
  let metrics =
    [ ("wall_s", median walls, "s"); ("cpu_s", median cpus, "s");
      ("setup_s", median setup_s, "s"); ("peak_rss_mb", peak_mb, "MB");
      ("coverage_pct", mean cov, "%"); ("ok_frac", 1.0 -. fail_frac, "frac") ]
  in
  result_line ~correct:(failed = 0 && bites) ~attempted ~failed metrics

(* Per-layer metrics derived from one traced pass's sums. *)
let derive acc =
  let g k = Option.value ~default:0.0 (Hashtbl.find_opt acc k) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  if Hashtbl.mem acc "symexec.steps" then begin
    Hashtbl.replace acc "symexec.steps_per_s"
      (ratio (g "symexec.steps") (g "core.session_s"));
    Hashtbl.replace acc "merge.fuse_ratio"
      (ratio (g "merge.fused") (g "merge.fused" +. g "merge.refusals"));
    Hashtbl.replace acc "solver.hit_rate"
      (ratio (g "solver.hits") (g "solver.hits" +. g "solver.misses"));
    Hashtbl.replace acc "solver.incr_model_hit_rate"
      (ratio (g "solver.incr_model_hits") (g "solver.incr_queries"));
    Hashtbl.replace acc "dbt.compiled_frac"
      (ratio (g "dbt.compiled_steps") (g "symexec.steps"))
  end

let per_layer_names =
  [ "minicc.compile_s"; "staticx.icfg_s"; "staticx.sfind_s"; "staticx.pdom_s";
    "core.session_s"; "core.report_s"; "session.invocations"; "session.kcalls";
    "session.paths_to_first_bug"; "symexec.steps"; "symexec.states";
    "symexec.dropped"; "symexec.steps_per_s"; "symexec.live_words";
    "symexec.cow_depth"; "merge.fused"; "merge.refusals"; "merge.fuse_ratio";
    "merge.ites"; "merge.forks_avoided"; "solver.queries"; "solver.group_solves";
    "solver.hit_rate"; "solver.bitblasts"; "solver.interval_solves";
    "solver.incr_queries"; "solver.incr_model_hit_rate"; "solver.incr_rebuilds";
    "solver.exhaustions"; "dbt.compiled_frac"; "dbt.bails"; "dbt.decompiled";
    "gc.minor_mwords"; "gc.major_collections"; "gc.top_heap_mb"; "dist.shipped";
    "dist.steals"; "dist.reships"; "dist.job_s"; "serve.overhead_s" ]

let unit_of name =
  if String.ends_with ~suffix:"_per_s" name then "1/s"
  else if String.ends_with ~suffix:"_s" name then "s"
  else if String.ends_with ~suffix:"_mb" name then "MB"
  else if String.ends_with ~suffix:"_mwords" name then "Mwords"
  else if List.exists (contains name) [ "rate"; "ratio"; "frac" ] then "frac"
  else "count"

let traced o =
  tracing := true;
  let s = setup ~workload:o.workload ~seed:o.seed ~out:o.out ~index:0 in
  let target = match s.s_daemon with Some d -> Served d | None -> In_process in
  (* Alternate untraced and traced passes for half of --seconds; the
     tour and the legs take about as long again. *)
  let t_end = now () +. (o.seconds /. 2.0) in
  let rec loop n plain traced =
    if n > 2 && now () >= t_end then (List.rev plain, List.rev traced)
    else begin
      let on = n mod 2 = 0 in
      tracing := on;
      let p =
        run_pass ~workload:o.workload ~phase:"traced" ~seed:o.seed ~pass_no:n target
          s.s_cfgs
      in
      tracing := true;
      if on then loop (n + 1) plain (p :: traced) else loop (n + 1) (p :: plain) traced
    end
  in
  let plain, traced_passes = loop 1 [] [] in
  (* The other side of the workload's sessions: in-process counters for
     [serve], one served pass for the in-process workloads. *)
  let tour =
    match s.s_daemon with
    | Some d ->
        stop_daemon d;
        run_pass ~workload:o.workload ~phase:"tour" ~seed:o.seed ~pass_no:999
          In_process s.s_cfgs
    | None ->
        let d =
          start_daemon
            ~sock:(Filename.concat o.out (Printf.sprintf "t%d.sock" (Unix.getpid ())))
            s.s_cfgs
        in
        let p =
          run_pass ~workload:o.workload ~phase:"tour" ~seed:o.seed ~pass_no:999
            (Served d) s.s_cfgs
        in
        stop_daemon d;
        p
  in
  let corpus_images =
    List.map
      (fun it ->
        (it, Ddt_minicc.Codegen.compile ~name:it.key (source_of it)))
      (items_of "corpus")
  in
  let legs, leg_outcomes, warm_passes = run_legs ~seed:o.seed ~out:o.out corpus_images in
  tracing := false;
  (* minicc is timed in set-up only; every other value comes from the
     traced passes and the tour. *)
  let tables = tour.p_acc :: List.map (fun p -> p.p_acc) traced_passes in
  List.iter derive tables;
  let value name =
    let from = if name = "minicc.compile_s" then [ s.s_warm.p_acc ] else tables in
    let vs = List.filter_map (fun t -> Hashtbl.find_opt t name) from in
    (name, median vs, unit_of name, List.length vs)
  in
  let plain_wall = median (List.map (fun p -> p.p_wall) plain) in
  let traced_wall = median (List.map (fun p -> p.p_wall) traced_passes) in
  let overhead = (traced_wall -. plain_wall) /. plain_wall in
  let leg_totals =
    List.map (fun (m, per) -> (m, List.fold_left (fun a (_, v) -> a +. v) 0.0 per)) legs
  in
  let leg_per_driver =
    List.concat_map (fun (m, per) -> List.map (fun (k, v) -> (m ^ "." ^ k, v)) per) legs
  in
  let metrics =
    List.map value per_layer_names
    @ [ ("trace.overhead_frac", overhead, "frac", List.length traced_passes);
        ("solver.store_warm_passes", float_of_int warm_passes, "count", 1) ]
    @ List.map (fun (m, v) -> (m, v, "s", 1)) (leg_totals @ leg_per_driver)
  in
  let outcomes =
    List.concat_map (fun p -> p.p_outcomes)
      ((s.s_warm :: tour :: plain) @ traced_passes)
    @ leg_outcomes
  in
  report_failures outcomes;
  let attempted = List.length outcomes and failed = failures outcomes in
  let meta_json =
    meta ~workload:o.workload ~seed:o.seed ~seconds:o.seconds ~trace:1
      ~commit:o.commit ~tree:o.tree
  in
  let path =
    Filename.concat o.out (Printf.sprintf "trace-%s-%d.json" o.workload o.seed)
  in
  write_trace ~path ~meta_json ~legs;
  print_line (obj [ ("trace_file", json_string path);
                    ("untraced_passes", string_of_int (List.length plain));
                    ("traced_passes", string_of_int (List.length traced_passes)) ]);
  List.iter
    (fun (m, per) ->
      Printf.printf "leg %-20s %s\n" m
        (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%+.3f" k v) per)))
    legs;
  List.iter (fun (n, v, u, k) -> detail ~name:n ~unit:u ~value:v ~samples:k ()) metrics;
  (* At jobs = 1 these counts must repeat exactly from pass to pass. *)
  let session_tables = List.filter (fun t -> Hashtbl.mem t "symexec.steps") tables in
  let repeats =
    List.for_all
      (fun k ->
        match List.map (fun t -> Hashtbl.find_opt t k) session_tables with
        | [] -> true
        | v :: rest -> List.for_all (( = ) v) rest)
      [ "symexec.steps"; "solver.queries"; "merge.fused"; "dbt.compiled_steps";
        "dbt.bails"; "dbt.decompiled" ]
  in
  print_line
    (obj [ ("deterministic_counts_repeat", string_of_bool repeats);
           ("passes_compared", string_of_int (List.length session_tables)) ]);
  let bites = oracle_bites ~workload:o.workload s.s_warm.p_outcomes in
  print_line (obj [ ("oracle_bites", string_of_bool bites) ]);
  result_line ~correct:(failed = 0 && bites) ~attempted ~failed
    (List.map (fun (n, v, u, _) -> (n, v, u)) metrics)

(* One pass with the recorded oracle, one with a perturbed one: the
   first must pass every session and the second fail some. *)
let selftest o =
  let s = setup ~workload:o.workload ~seed:o.seed ~out:o.out ~index:0 in
  let target = match s.s_daemon with Some d -> Served d | None -> In_process in
  let frac p =
    float_of_int (failures p.p_outcomes) /. float_of_int (List.length p.p_outcomes)
  in
  let pass n =
    run_pass ~workload:o.workload ~phase:"selftest" ~seed:o.seed ~pass_no:n target
      s.s_cfgs
  in
  let good = pass 1 in
  let recorded = !oracle in
  oracle := wrong_oracle recorded;
  let bad = pass 2 in
  oracle := recorded;
  Option.iter stop_daemon s.s_daemon;
  Printf.printf
    "selftest %s: fail_frac %.3f with the recorded oracle, %.3f with a wrong one\n"
    o.workload (frac good) (frac bad);
  if frac good = 0.0 && frac bad > 0.0 then 0 else 1

(* Runs each workload once and prints the oracle module. *)
let record_oracle o =
  oracle := [];
  let rows =
    List.concat_map
      (fun workload ->
        let s = setup ~workload ~seed:o.seed ~out:o.out ~index:0 in
        Option.iter stop_daemon s.s_daemon;
        List.map
          (fun oc -> ((workload, oc.o_item.key), oc))
          (List.sort (fun a b -> compare a.o_item.key b.o_item.key) s.s_warm.p_outcomes))
      workloads
  in
  print_string
    "(* Recorded per-workload bug-key sets and reachable-block coverage of\n\
    \   every session, from [ddtbench.exe --record-oracle]. A session whose\n\
    \   dynamic bug keys differ from its row fails. *)\n\n\
     type expect = { bugs : string list; covered : int; reachable : int }\n\n\
     let table : ((string * string) * expect) list =\n  [\n";
  List.iter
    (fun ((w, k), oc) ->
      Printf.printf
        "    ((%S, %S),\n     { covered = %d; reachable = %d;\n       bugs = [%s] });\n"
        w k oc.o_covered oc.o_reachable
        (String.concat ";\n               "
           (List.map (Printf.sprintf "%S") oc.o_keys)))
    rows;
  print_string "  ]\n";
  0

let () =
  let workload = ref "corpus" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and out = ref "ddtbench/_out" in
  let commit = ref "unknown" and tree = ref "unknown" in
  let mode = ref `Bench in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "corpus|small|serve");
      ("--seed", Arg.Set_int seed, "N  permutes the session order of every pass");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  traced per-layer run");
      ("--out", Arg.Set_string out, "DIR  trace files, sockets, scratch stores");
      ("--commit", Arg.Set_string commit, "H  commit recorded in the output");
      ("--tree", Arg.Set_string tree, "H  source-tree hash recorded in the output");
      ("--selftest", Arg.Unit (fun () -> mode := `Selftest),
       " a wrong oracle must bite");
      ("--record-oracle", Arg.Unit (fun () -> mode := `Record), " print oracle.ml") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ddtbench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  mkdir_p !out;
  let o =
    { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace;
      out = !out; commit = !commit; tree = !tree }
  in
  match !mode with
  | `Selftest -> exit (selftest o)
  | `Record -> exit (record_oracle o)
  | `Bench ->
      print_line
        (obj [ ("meta", meta ~workload:o.workload ~seed:o.seed ~seconds:o.seconds
                          ~trace:o.trace ~commit:o.commit ~tree:o.tree) ]);
      if o.trace = 1 then traced o else untraced o
