(* Length-prefixed framing for the serve socket: a 4-byte little-endian
   payload length, then the payload. Frame extraction is a pure function
   over an input buffer (QCheck-tested in isolation); the [conn] layer
   merely feeds it file-descriptor reads. *)

(* Frames above this size are corruption by definition — the length
   prefix of a damaged stream must not drive a multi-gigabyte
   allocation. *)
let max_frame = 1 lsl 28

let frame payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Proto.frame: payload too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Pure incremental extraction: [Ok None] = need more input, [Ok (Some
   (payload, rest))] = one complete frame, [Error _] = the stream is
   unrecoverably damaged (negative or absurd length). *)
let extract buf =
  let len = String.length buf in
  if len < 4 then Ok None
  else
    let n = Int32.to_int (String.get_int32_le buf 0) in
    if n < 0 || n > max_frame then
      Error (Printf.sprintf "bad frame length %d" n)
    else if len < 4 + n then Ok None
    else Ok (Some (String.sub buf 4 n, String.sub buf (4 + n) (len - 4 - n)))

(* {2 Connections} *)

type conn = {
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  mutable rbuf : string;         (* unconsumed input bytes *)
  mutable broken : bool;
}

let make ~fd_in ~fd_out = { fd_in; fd_out; rbuf = ""; broken = false }

let close c =
  (try Unix.close c.fd_in with Unix.Unix_error _ -> ());
  if c.fd_out <> c.fd_in then
    try Unix.close c.fd_out with Unix.Unix_error _ -> ()

let send_raw c payload =
  if c.broken then Error "connection broken"
  else
    let s = frame payload in
    let n = String.length s in
    let b = Bytes.unsafe_of_string s in
    let rec go off =
      if off >= n then Ok ()
      else
        match Unix.write c.fd_out b off (n - off) with
        | written -> go (off + written)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception Unix.Unix_error _ ->
            c.broken <- true;
            Error "peer gone"
    in
    go 0

(* One fd read appended to the buffer; [Ok false] = EOF. *)
let read_chunk c =
  let b = Bytes.create 65536 in
  match Unix.read c.fd_in b 0 (Bytes.length b) with
  | 0 -> Ok false
  | n ->
      c.rbuf <- c.rbuf ^ Bytes.sub_string b 0 n;
      Ok true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok true
  | exception Unix.Unix_error _ -> Error "read failed"

(* Blocking receive of one frame's payload. *)
let rec recv_raw c =
  if c.broken then Error "connection broken"
  else
    match extract c.rbuf with
    | Error _ as e ->
        c.broken <- true;
        e
    | Ok (Some (payload, rest)) ->
        c.rbuf <- rest;
        Ok payload
    | Ok None -> (
        match read_chunk c with
        | Error _ as e ->
            c.broken <- true;
            e
        | Ok false ->
            c.broken <- true;
            Error "eof"
        | Ok true -> recv_raw c)
