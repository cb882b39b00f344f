(* The serve daemon: wire-framing robustness, job-request decoding,
   admission control, served reports against the sequential oracle, and
   worker-domain recovery. *)

open Ddt_core
module Report = Ddt_checkers.Report
module Corpus = Ddt_drivers.Corpus
module Proto = Ddt_dist.Proto
module Serve = Ddt_dist.Serve
module Blob = Ddt_solver.Blob
module Exec = Ddt_symexec.Exec
module Guard = Ddt_symexec.Guard

let bug_keys r =
  List.sort compare (List.map (fun b -> b.Report.b_key) r.Session.r_bugs)

let oracle entry = Ddt.test_driver (Corpus.config entry)

(* {2 Wire framing} *)

let frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 '\xff'; "hello\nworld" ] in
  let stream = String.concat "" (List.map Proto.frame payloads) in
  let rec pop acc buf =
    match Proto.extract buf with
    | Ok None ->
        Alcotest.(check string) "no residue" "" buf;
        List.rev acc
    | Ok (Some (p, rest)) -> pop (p :: acc) rest
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "all frames recovered" payloads
    (pop [] stream)

let qcheck_framing =
  QCheck.Test.make ~count:500 ~name:"framed stream reassembles at any split"
    QCheck.(pair (small_list (string_of_size Gen.small_nat)) small_nat)
    (fun (payloads, cut) ->
      let stream = String.concat "" (List.map Proto.frame payloads) in
      (* Feed the stream in two arbitrary chunks through a buffer, the
         way the conn layer does, and demand the same payloads out. *)
      let cut = min cut (String.length stream) in
      let feed bufs =
        let rec go acc buf = function
          | [] -> (acc, buf)
          | chunk :: rest ->
              let buf = buf ^ chunk in
              let rec drain acc buf =
                match Proto.extract buf with
                | Ok None -> (acc, buf)
                | Ok (Some (p, rest')) -> drain (p :: acc) rest'
                | Error e -> Alcotest.fail e
              in
              let acc, buf = drain acc buf in
              go acc buf rest
        in
        go [] "" bufs
      in
      let got, residue =
        feed
          [ String.sub stream 0 cut;
            String.sub stream cut (String.length stream - cut) ]
      in
      residue = "" && List.rev got = payloads)

let qcheck_truncation =
  QCheck.Test.make ~count:500 ~name:"truncated stream never yields a frame"
    QCheck.(pair (string_of_size Gen.small_nat) small_nat)
    (fun (payload, drop) ->
      let f = Proto.frame payload in
      let drop = 1 + (drop mod String.length f) in
      let truncated = String.sub f 0 (String.length f - drop) in
      match Proto.extract truncated with
      | Ok None -> true
      | Ok (Some _) -> false
      | Error _ -> true (* a mangled length is allowed to be an error *))

let corrupt_length_is_error () =
  (* A negative / absurd length prefix must be a clean error, not an
     allocation or a hang. *)
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 0x7FFFFFFFl;
  (match Proto.extract (Bytes.to_string b) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "oversized length accepted");
  let b = Bytes.create 8 in
  Bytes.set_int32_le b 0 (-1l);
  match Proto.extract (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative length accepted"

let corrupt_payload_is_error () =
  let f = Proto.frame (Blob.encode [ 1; 2; 3 ]) in
  (* Flip a byte inside the blob payload: the CRC must catch it. *)
  let b = Bytes.of_string f in
  let i = Bytes.length b - 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
  match Proto.extract (Bytes.to_string b) with
  | Ok (Some (payload, _)) -> (
      match Blob.decode payload with
      | Error _ -> ()
      | Ok (_ : int list) -> Alcotest.fail "corrupt payload decoded")
  | Ok None -> Alcotest.fail "complete frame not extracted"
  | Error _ -> ()

(* {2 Worker recovery}

   A served job runs on shared-frontier worker domains, so a worker that
   dies must not change its verdict. Two worker domains at the full
   default budgets, with every 25th pick crashing the worker that made
   it: each crash requeues its state and restarts the worker, and the run
   must report the sequential fault-free bug set. Which worker dies
   varies from run to run; the verdict must not. The case names come
   from the multi-process tier these cases replace, which SIGKILLed
   worker process 0. *)

let recovery_case short () =
  let e = Corpus.find short in
  let cfg = Corpus.config e in
  let r =
    Session.run
      { cfg with
        Config.exec_config =
          { cfg.Config.exec_config with
            Exec.jobs = 2;
            chaos =
              Some
                { Guard.chaos_worker_crash_period = 25;
                  chaos_solver_exhaust_period = 0;
                  chaos_pressure_words = 0 } } }
  in
  Alcotest.(check (list string))
    (short ^ " bug set with worker domains killed = sequential")
    (bug_keys (oracle e)) (bug_keys r);
  let crashes =
    List.length
      (List.filter
         (fun (i : Report.incident) -> i.Guard.inc_kind = Guard.Worker_crash)
         r.Session.r_incidents)
  in
  Alcotest.(check int) (short ^ " one restart per crash") crashes
    r.Session.r_stats.Exec.st_worker_restarts;
  Alcotest.(check bool) (short ^ " finished states nonzero") true
    (r.Session.r_finished_states > 0)

(* {2 The daemon} *)

let with_tmpdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddt_dist_test_%d_%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* Fork a daemon serving [max_jobs] connections on a fresh socket, run
   [f socket_path] against it, then reap it. *)
let with_daemon ~max_jobs f =
  with_tmpdir (fun dir ->
      let socket_path = Filename.concat dir "ddt.sock" in
      match Unix.fork () with
      | 0 ->
          let resolve (j : Serve.job) =
            match Corpus.find j.Serve.jq_driver with
            | e -> Ok (Corpus.config ~fixed:j.Serve.jq_fixed e)
            | exception Not_found -> Error ("unknown driver " ^ j.Serve.jq_driver)
          in
          ignore (Serve.serve ~socket_path ~max_jobs ~resolve ());
          Unix._exit 0
      | pid ->
          let rec wait_sock n =
            if n = 0 then Alcotest.fail "server socket never appeared";
            if not (Sys.file_exists socket_path) then begin
              Unix.sleepf 0.05;
              wait_sock (n - 1)
            end
          in
          wait_sock 200;
          Fun.protect
            ~finally:(fun () -> ignore (Unix.waitpid [] pid))
            (fun () -> f socket_path))

(* Submit an rtl8029 job asking for [workers] worker domains, check the
   streamed report against the sequential oracle, and return the worker
   count the daemon's acceptance line reports. *)
let check_served_rtl8029 ?(workers = 2) socket_path =
  let lines =
    match
      Serve.submit ~socket_path
        { Serve.jq_driver = "rtl8029"; jq_fixed = false; jq_workers = workers }
    with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  let report =
    List.filter_map Report_json.of_string lines |> function
    | [ r ] -> r
    | _ -> Alcotest.fail "expected exactly one schema report line"
  in
  Alcotest.(check string) "served driver"
    (Corpus.config (Corpus.find "rtl8029")).Config.driver_name
    report.Report_json.j_driver;
  let seq = bug_keys (oracle (Corpus.find "rtl8029")) in
  Alcotest.(check (list string)) "served bug set = sequential" seq
    (List.sort compare
       (List.map (fun b -> b.Report_json.jb_key) report.Report_json.j_bugs));
  let prefix = "{\"serve\":\"accepted\"" in
  match List.find_opt (String.starts_with ~prefix) lines with
  | None -> Alcotest.fail "no acceptance line"
  | Some l ->
      (* the line ends with ["workers":N}] *)
      let colon = String.rindex l ':' in
      int_of_string (String.sub l (colon + 1) (String.length l - colon - 2))

let serve_roundtrip () =
  with_daemon ~max_jobs:1 (fun p -> ignore (check_served_rtl8029 p))

(* A job may ask for any worker count the request format allows; the
   daemon runs it on no more worker domains than the machine has
   cores, and says so. *)
let serve_clamps_workers () =
  with_daemon ~max_jobs:1 (fun socket_path ->
      let workers = check_served_rtl8029 ~workers:9999 socket_path in
      Alcotest.(check bool)
        (Printf.sprintf "effective workers %d within 1..%d" workers
           (Domain.recommended_domain_count ()))
        true
        (workers >= 1 && workers <= Domain.recommended_domain_count ()))

(* A frame carrying some other payload (a version-skewed client sending
   a blob-encoded value) is answered with an error line, and the daemon
   goes on to serve the next, valid job. *)
let serve_refuses_foreign_frame () =
  with_daemon ~max_jobs:2 (fun socket_path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX socket_path);
      let foreign = Proto.frame (Blob.encode 42) in
      ignore (Unix.write_substring fd foreign 0 (String.length foreign));
      let reply = In_channel.input_all (Unix.in_channel_of_descr fd) in
      Unix.close fd;
      Alcotest.(check bool)
        (Printf.sprintf "error line for a foreign frame: %S" reply)
        true
        (String.starts_with ~prefix:"{\"serve\":\"error\"" reply
         && String.index_opt reply '\n' = Some (String.length reply - 1));
      ignore (check_served_rtl8029 socket_path))

let job_request_decoding () =
  let job =
    { Serve.jq_driver = "pro1000"; jq_fixed = true; jq_workers = 3 }
  in
  Alcotest.(check bool) "round trip" true
    (Serve.job_of_string (Serve.job_to_string job) = Ok job);
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "refused: %S" s) true
        (Result.is_error (Serve.job_of_string s)))
    [ ""; "ddt-job/1"; "ddt-job/1 pro1000 1"; "ddt-job/2 pro1000 1 3";
      "ddt-job/1 pro1000 yes 3"; "ddt-job/1 pro1000 1 -2";
      "ddt-job/1 pro1000 1 0x10"; "ddt-job/1 pro1000 1 99999";
      "ddt-job/1 ../x\n 1 3"; "ddt-job/1  1 3"; "ddt-job/1 pro1000 1 3 x";
      Proto.frame (Blob.encode 42) ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ddt_dist"
    [
      ( "proto",
        [
          Alcotest.test_case "frame roundtrip" `Quick frame_roundtrip;
          qt qcheck_framing;
          qt qcheck_truncation;
          Alcotest.test_case "corrupt length" `Quick corrupt_length_is_error;
          Alcotest.test_case "corrupt payload" `Quick corrupt_payload_is_error;
        ] );
      ( "serve",
        [
          Alcotest.test_case "serve/submit roundtrip" `Quick serve_roundtrip;
          Alcotest.test_case "foreign frame refused, daemon serves on" `Quick
            serve_refuses_foreign_frame;
          Alcotest.test_case "job request decoding" `Quick
            job_request_decoding;
          Alcotest.test_case "oversized worker count clamped" `Quick
            serve_clamps_workers;
        ] );
      (* Last: these cases start worker domains, after which the
         daemon tests could no longer fork. *)
      ( "recovery",
        List.map
          (fun e ->
            Alcotest.test_case
              (Printf.sprintf "%s parity with worker 0 killed" e.Corpus.short)
              `Quick (recovery_case e.Corpus.short))
          Corpus.all );
    ]
