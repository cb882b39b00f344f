(** Length-prefixed framing for the [serve]/[submit] socket.

    A frame is a 4-byte little-endian payload length followed by the
    payload bytes. The framing layer is a pure function over an input
    buffer — truncation yields "need more", a damaged length yields
    [Error _], and neither can hang. Payloads are not interpreted here:
    the receiver parses and checks them (see {!Serve.job_of_string}). *)

val max_frame : int

(** {2 Pure framing} *)

val frame : string -> string
(** Prefix a payload with its 4-byte little-endian length. *)

val extract : string -> ((string * string) option, string) result
(** [extract buf] is [Ok None] (incomplete), [Ok (Some (payload,
    rest))] (one frame), or [Error _] (unrecoverable length damage). *)

(** {2 Connections} *)

type conn

val make : fd_in:Unix.file_descr -> fd_out:Unix.file_descr -> conn
val close : conn -> unit

val send_raw : conn -> string -> (unit, string) result
(** Write one frame carrying the string; a dead peer (EPIPE etc.) is
    [Error _] and marks the connection broken. *)

val recv_raw : conn -> (string, string) result
(** Block until one frame arrives and return its payload unparsed. EOF
    and length damage are [Error _]. *)
