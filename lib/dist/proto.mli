(** Coordinator/worker wire protocol.

    Length-prefixed {!Ddt_solver.Blob} frames over pipes or Unix
    sockets. The framing layer is a pure function over an input buffer
    — truncation yields "need more", corruption yields [Error _], and
    neither can hang or misdecode (the blob CRC catches damaged
    payloads). *)

type c2w =
  | C_explore of Ddt_symexec.Symstate.image list
      (** ship these states; answer [W_idle] when the frontier drains *)
  | C_steal of int
      (** donate up to [n] queued states; answer [W_stolen] *)
  | C_shutdown

type w2c =
  | W_ready
  | W_status of int              (** heartbeat: current queue length *)
  | W_stolen of Ddt_symexec.Symstate.image list
  | W_idle of Ddt_core.Session.Dist.batch
  | W_bye

val max_frame : int

(** {2 Pure framing} *)

val frame : string -> string
(** Prefix a payload with its 4-byte little-endian length. *)

val extract : string -> ((string * string) option, string) result
(** [extract buf] is [Ok None] (incomplete), [Ok (Some (payload,
    rest))] (one frame), or [Error _] (unrecoverable length damage). *)

val encode : 'a -> string
(** Blob-encode a message and frame it. *)

val decode_payload : string -> ('a, string) result

(** {2 Connections} *)

type conn

val make : fd_in:Unix.file_descr -> fd_out:Unix.file_descr -> conn
val fd_in : conn -> Unix.file_descr
val close : conn -> unit

val send : conn -> 'a -> (unit, string) result
(** Write one message fully; a dead peer (EPIPE etc.) is [Error _] and
    marks the connection broken. *)

val recv : conn -> ('a, string) result
(** Block until one message arrives. EOF and corruption are [Error _].
    The result is read back at whatever type the caller names, so only
    use it on a peer that shares this build's types. *)

val send_raw : conn -> string -> (unit, string) result
(** Write one frame whose payload is the string itself, with no blob
    envelope: for messages the receiver parses and checks as text. *)

val recv_raw : conn -> (string, string) result
(** Block until one frame arrives and return its payload unparsed. EOF
    and length damage are [Error _]. *)

val try_recv : conn -> ('a option, string) result
(** Drain whatever is readable without blocking; [Ok None] when no
    complete frame is available yet. *)
