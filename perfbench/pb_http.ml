(* What the two HTTP workloads share: the served file set, the COM
   objects the server is handed (wrapped on the traced run), and a client
   response reader that checks every response byte for byte. *)

open Pb_sim

let file_name i = Printf.sprintf "f%d.bin" i

(* Each file has its own position-dependent bytes, so a body served from
   the wrong file or the wrong offset is caught. *)
let body ~file ~len = String.init len (fun i -> pattern ~stream:(file + 1) i)

(* A file system on a RAM disk holding one file per entry of [sizes].
   Built outside any machine, so it charges no virtual time. *)
let make_root ~disk_bytes sizes =
  let dev = Mem_blkio.make ~bytes:disk_bytes () in
  let dev = if !Pb_trace.on then Pb_interpose.blkio dev else dev in
  let root = ok "newfs" (Fs_glue.newfs dev) in
  let bodies =
    Array.mapi
      (fun fi len ->
        let f = ok "create" (root.Io_if.d_create (file_name fi)) in
        let b = Bytes.of_string (body ~file:fi ~len) in
        let rec push off =
          if off < len then
            push (off + ok "write" (f.Io_if.f_write ~buf:b ~pos:off ~offset:off ~amount:(len - off)))
        in
        push 0;
        Bytes.to_string b)
      sizes
  in
  (if !Pb_trace.on then Pb_interpose.dir root else root), bodies

let wrap_socket s = if !Pb_trace.on then Pb_interpose.socket s else s

(* ---- the client side ---- *)

(* An incremental reader over one connection.  [fills] remembers when each
   received chunk ended, so a response's completion time is the time its
   last body byte arrived even when it came in with an earlier chunk. *)
type reader = {
  recv : bytes -> int -> int;
  now : unit -> int;
  chunk : bytes;
  buf : Buffer.t;
  mutable pos : int;  (* start of the next unread response *)
  mutable scan : int;  (* where the header-end search resumes *)
  mutable fills : (int * int) list;  (* (end offset, time), oldest first *)
}

let reader ~recv ~now =
  { recv; now; chunk = Bytes.create 16384; buf = Buffer.create 32768; pos = 0; scan = 0; fills = [] }

let fill r =
  let n = r.recv r.chunk (Bytes.length r.chunk) in
  if n > 0 then begin
    Buffer.add_subbytes r.buf r.chunk 0 n;
    r.fills <- r.fills @ [ Buffer.length r.buf, r.now () ]
  end;
  n

let rec header_end r =
  let len = Buffer.length r.buf in
  let rec find i =
    if i + 3 >= len then None
    else if
      Buffer.nth r.buf i = '\r'
      && Buffer.nth r.buf (i + 1) = '\n'
      && Buffer.nth r.buf (i + 2) = '\r'
      && Buffer.nth r.buf (i + 3) = '\n'
    then Some i
    else find (i + 1)
  in
  match find (max r.pos r.scan) with
  | Some i -> Some i
  | None ->
      r.scan <- max r.pos (len - 3);
      if fill r > 0 then header_end r else None

let content_length hdr =
  let lower = String.lowercase_ascii hdr in
  let key = "content-length:" in
  let rec find i =
    if i + String.length key > String.length lower then None
    else if String.sub lower i (String.length key) = key then Some (i + String.length key)
    else find (i + 1)
  in
  Option.bind (find 0) (fun i ->
      let stop = try String.index_from hdr i '\r' with Not_found -> String.length hdr in
      int_of_string_opt (String.trim (String.sub hdr i (stop - i))))

let wrong = "response differs from the file"

(* Read one response and check it is a 200 carrying exactly [expect].
   Returns the time its last body byte arrived, or why it failed. *)
let read_response r ~expect =
  match header_end r with
  | None -> Error "connection closed before the response header"
  | Some he -> (
      let hdr = Buffer.sub r.buf r.pos (he - r.pos) in
      match content_length hdr with
      | None -> Error "no Content-Length"
      | Some len ->
          let need = he + 4 + len in
          let rec complete () = Buffer.length r.buf >= need || (fill r > 0 && complete ()) in
          if not (complete ()) then Error "short body"
          else begin
            let t_done =
              match List.find_opt (fun (e, _) -> e >= need) r.fills with
              | Some (_, t) -> t
              | None -> r.now ()
            in
            let ok =
              String.length hdr > 12 && String.sub hdr 9 3 = "200"
              && len = String.length expect
              && Buffer.sub r.buf (he + 4) len = expect
            in
            r.pos <- need;
            r.scan <- need;
            r.fills <- List.filter (fun (e, _) -> e > need) r.fills;
            if r.pos = Buffer.length r.buf then begin
              Buffer.clear r.buf;
              r.pos <- 0;
              r.scan <- 0;
              r.fills <- []
            end;
            if ok then Ok t_done else Error wrong
          end)

(* The client's own stack is native FreeBSD. *)
let client_socket stack =
  let s = Bsd_socket.tcp_socket stack in
  let send str =
    let b = Bytes.of_string str in
    let rec go off =
      if off < Bytes.length b then
        match Bsd_socket.so_send s ~buf:b ~pos:off ~len:(Bytes.length b - off) with
        | Ok n -> go (off + n)
        | Error _ -> false
      else true
    in
    go 0
  in
  let recv b len = match Bsd_socket.so_recv s ~buf:b ~pos:0 ~len with Ok n -> n | Error _ -> 0 in
  s, send, recv
