(* Wire protocol between the coordinator and its worker processes.

   Frames are a 4-byte little-endian payload length followed by a
   {!Ddt_solver.Blob}-encoded payload, so every message inherits the
   blob container's magic/version/CRC-32 envelope: a truncated or
   corrupted frame decodes to [Error _], never to a wrong value and
   never to a hang. Frame extraction is a pure function over an input
   buffer (QCheck-tested in isolation); the [conn] layer merely feeds
   it file-descriptor reads. *)

module Blob = Ddt_solver.Blob
module St = Ddt_symexec.Symstate
module Session = Ddt_core.Session

(* Coordinator -> worker. *)
type c2w =
  | C_explore of St.image list
      (* ship these states: inject and explore until the frontier
         drains, then answer [W_idle]. One frame per shipment keeps the
         marshal sharing between sibling states intact. *)
  | C_steal of int
      (* give up to [n] queued states to rebalance; answer [W_stolen]
         (possibly empty) at the next pick boundary *)
  | C_shutdown

(* Worker -> coordinator. *)
type w2c =
  | W_ready                      (* session built, lane claimed *)
  | W_status of int              (* heartbeat: current queue length *)
  | W_stolen of St.image list
  | W_idle of Session.Dist.batch (* frontier drained; cumulative results *)
  | W_bye

(* Frames above this size are corruption by definition — the length
   prefix of a damaged stream must not drive a multi-gigabyte
   allocation. Generous: a full corpus-driver frontier marshals to a
   few MB. *)
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

let encode msg = frame (Blob.encode msg)
let decode_payload payload = Blob.decode payload

(* {2 Connections} *)

type conn = {
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  mutable rbuf : string;         (* unconsumed input bytes *)
  mutable broken : bool;
}

let make ~fd_in ~fd_out = { fd_in; fd_out; rbuf = ""; broken = false }
let fd_in c = c.fd_in

let close c =
  (try Unix.close c.fd_in with Unix.Unix_error _ -> ());
  if c.fd_out <> c.fd_in then
    try Unix.close c.fd_out with Unix.Unix_error _ -> ()

let write_frame c s =
  if c.broken then Error "connection broken"
  else
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

let send c msg = write_frame c (encode msg)
let send_raw c payload = write_frame c (frame payload)

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

let pop_payload c =
  match extract c.rbuf with
  | Error _ as e ->
      c.broken <- true;
      e
  | Ok None -> Ok None
  | Ok (Some (payload, rest)) ->
      c.rbuf <- rest;
      Ok (Some payload)

let pop_frame c =
  match pop_payload c with
  | (Error _ | Ok None) as r -> r
  | Ok (Some payload) -> (
      match decode_payload payload with
      | Ok v -> Ok (Some v)
      | Error e ->
          c.broken <- true;
          Error ("corrupt frame: " ^ e))

(* Blocking receive of one frame, taken off the buffer by [pop]. *)
let rec recv_with pop c =
  if c.broken then Error "connection broken"
  else
    match pop c with
    | Error _ as e -> e
    | Ok (Some v) -> Ok v
    | Ok None -> (
        match read_chunk c with
        | Error _ as e ->
            c.broken <- true;
            e
        | Ok false ->
            c.broken <- true;
            Error "eof"
        | Ok true -> recv_with pop c)

let recv c = recv_with pop_frame c
let recv_raw c = recv_with pop_payload c

(* Non-blocking receive: drain whatever is readable right now; [Ok
   None] when no complete frame is available. *)
let rec try_recv c =
  if c.broken then Error "connection broken"
  else
    match pop_frame c with
    | Error _ as e -> e
    | Ok (Some v) -> Ok (Some v)
    | Ok None -> (
        match Unix.select [ c.fd_in ] [] [] 0.0 with
        | [], _, _ -> Ok None
        | _ -> (
            match read_chunk c with
            | Error _ as e ->
                c.broken <- true;
                e
            | Ok false ->
                c.broken <- true;
                Error "eof"
            | Ok true -> try_recv c)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> Ok None)
