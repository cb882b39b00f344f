(** Unix-socket job daemon ([ddt_cli serve]) and its client
    ([ddt_cli submit]).

    The server accepts one framed {!job} per connection, sent as the
    text of {!job_to_string} and checked by {!job_of_string} (anything
    else gets an error line, and the daemon serves on), resolves it to
    a configuration (corpus lookup lives in the caller), admits it —
    the resource {!Ddt_core.Governor} is forced on, so a served job can
    never run ungoverned, and its worker count is capped at
    [Domain.recommended_domain_count ()] — runs it in the daemon's own
    process through {!Ddt_core.Session.run} on that many shared-frontier
    worker domains, and streams newline-delimited JSON back: an
    acceptance object with the effective worker count, a completion
    object with the job's wall time and frontier steals, then the full
    schema report ({!Ddt_core.Report_json}). Jobs run one at a time;
    a job's worker domains already saturate the machine. *)

type job = {
  jq_driver : string;
  jq_fixed : bool;       (** run the repaired variant *)
  jq_workers : int;
  (** worker domains requested for this job; the daemon runs it on at
      least 1 and at most [Domain.recommended_domain_count ()] *)
}

val job_to_string : job -> string
(** The wire form: [ddt-job/1 <driver> <0|1> <workers>]. *)

val job_of_string : string -> (job, string) result
(** Inverse of {!job_to_string}. Refuses any other text: a driver name
    outside [[A-Za-z0-9_.-]{1,64}], a fixed flag other than [0]/[1], or
    a worker count that is not 0–9999. *)

val serve :
  socket_path:string ->
  ?max_jobs:int ->
  resolve:(job -> (Ddt_core.Config.t, string) result) ->
  unit ->
  (int, string) result
(** Bind [socket_path] (unlinking any stale socket first) and serve
    jobs sequentially. [max_jobs > 0] exits cleanly after that many
    jobs (the smoke-test mode); 0 serves forever. Returns the number of
    jobs handled. *)

val submit : socket_path:string -> job -> (string list, string) result
(** Send one job and return the server's response lines (JSON objects;
    the last is the full report). *)
