(* [ddt_cli serve]: a Unix-socket daemon that runs each test job inside
   its own process, on the shared frontier's worker domains, and the
   matching [submit] client.

   One job at a time (a job's worker domains already saturate the
   machine); admission control forces the resource [Governor] onto every
   job's configuration and caps its worker count at the cores the
   runtime recommends. Responses are newline-delimited JSON: an acceptance
   (or error) object first, then the full schema report. The job
   request itself travels as one {!Proto} frame whose payload is a short
   line of text, checked field by field on decode: the daemon does not
   trust its peer, so a truncated, corrupt or foreign submission is a
   clean error line, never a hang and never a misread job. *)

module Config = Ddt_core.Config
module Governor = Ddt_core.Governor
module Report_json = Ddt_core.Report_json
module Session = Ddt_core.Session
module Exec = Ddt_symexec.Exec

type job = {
  jq_driver : string;
  jq_fixed : bool;       (* run the repaired variant *)
  jq_workers : int;      (* worker domains requested for this job *)
}

(* The request line: [ddt-job/1 <driver> <fixed 0|1> <workers>]. *)
let request_tag = "ddt-job/1"

let job_to_string j =
  Printf.sprintf "%s %s %d %d" request_tag j.jq_driver
    (if j.jq_fixed then 1 else 0)
    j.jq_workers

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let job_of_string s =
  match String.split_on_char ' ' s with
  | [ tag; driver; fixed; workers ] when tag = request_tag ->
      if driver = "" || String.length driver > 64
         || not (String.for_all is_name_char driver)
      then Error "bad driver name"
      else if fixed <> "0" && fixed <> "1" then Error "bad fixed flag"
      else if workers = "" || String.length workers > 4
              || not (String.for_all is_digit workers)
      then Error "bad worker count"
      else
        Ok { jq_driver = driver; jq_fixed = fixed = "1";
             jq_workers = int_of_string workers }
  | _ -> Error "not a job request"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_line fd s =
  let s = s ^ "\n" in
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
  in
  go 0

(* Admission control: every served job runs under the resource
   governor, whatever its submitted configuration says, and on at most
   as many worker domains as the runtime recommends for this machine. *)
let admit job (cfg : Config.t) =
  let cfg =
    match cfg.Config.governor with
    | Some _ -> cfg
    | None -> { cfg with Config.governor = Some Governor.default_limits }
  in
  let jobs = max 1 (min job.jq_workers (Domain.recommended_domain_count ())) in
  { cfg with Config.exec_config = { cfg.Config.exec_config with Exec.jobs } }

let handle_client ~resolve fd =
  let conn = Proto.make ~fd_in:fd ~fd_out:fd in
  (match Result.bind (Proto.recv_raw conn) job_of_string with
   | Error e ->
       write_line fd
         (Printf.sprintf "{\"serve\":\"error\",\"message\":\"bad request: %s\"}"
            (json_escape e))
   | Ok job -> (
       match resolve job with
       | Error e ->
           write_line fd
             (Printf.sprintf "{\"serve\":\"error\",\"message\":\"%s\"}"
                (json_escape e))
       | Ok cfg ->
           let cfg = admit job cfg in
           write_line fd
             (Printf.sprintf
                "{\"serve\":\"accepted\",\"driver\":\"%s\",\"workers\":%d}"
                (json_escape cfg.Config.driver_name)
                cfg.Config.exec_config.Exec.jobs);
           let t0 = Unix.gettimeofday () in
           let result = Session.run cfg in
           write_line fd
             (Printf.sprintf "{\"serve\":\"done\",\"wall\":%.3f,\"steals\":%d}"
                (Unix.gettimeofday () -. t0)
                result.Session.r_stats.Exec.st_steals);
           write_line fd
             (Report_json.to_string (Report_json.of_result result))));
  try Unix.close fd with Unix.Unix_error _ -> ()

let serve ~socket_path ?(max_jobs = 0) ~resolve () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cleanup () =
    (try Unix.close srv with Unix.Unix_error _ -> ());
    try Unix.unlink socket_path with Unix.Unix_error _ -> ()
  in
  try
    Unix.bind srv (Unix.ADDR_UNIX socket_path);
    Unix.listen srv 8;
    let jobs = ref 0 in
    let continue () = max_jobs = 0 || !jobs < max_jobs in
    while continue () do
      match Unix.accept srv with
      | fd, _ ->
          incr jobs;
          handle_client ~resolve fd
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    cleanup ();
    Ok !jobs
  with
  | Unix.Unix_error (e, _, _) ->
      cleanup ();
      Error (Unix.error_message e)
  | e ->
      cleanup ();
      Error (Printexc.to_string e)

let submit ~socket_path (job : job) =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
  | exception Unix.Unix_error (e, _, _) ->
      close ();
      Error (Printf.sprintf "connect %s: %s" socket_path (Unix.error_message e))
  | () -> (
      let conn = Proto.make ~fd_in:fd ~fd_out:fd in
      match Proto.send_raw conn (job_to_string job) with
      | Error e ->
          close ();
          Error e
      | Ok () ->
          (* Read the newline-delimited JSON response until the server
             closes the stream. *)
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 65536 in
          let rec drain () =
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                drain ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
            | exception Unix.Unix_error _ -> ()
          in
          drain ();
          close ();
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' (Buffer.contents buf))
          in
          if lines = [] then Error "empty response" else Ok lines)
