(* The testbed plumbing the bench experiments share: addresses, the memfs
   that serves their files, the httpd server stacks and shapes, and the
   blocking client's send and receive loops.  The experiments' [run]
   functions stay separate: each has its own client discipline. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let server_ip = ip "10.0.0.2"
let client_ip = ip "10.0.0.1"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("bench: " ^ Error.to_string e)

(* A fresh two-PC testbed: every run starts from cleared globals. *)
let testbed ?(models = ("3c905", "tulip")) ?bandwidth_bps ?latency_ns () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  Clientos.make_testbed ~models ?bandwidth_bps ?latency_ns ()

(* A freshly formatted memfs holding [files] (name, contents), written in
   order. *)
let make_root ?(dev_bytes = 1 lsl 20) files =
  let root = ok (Fs_glue.newfs (Mem_blkio.make ~bytes:dev_bytes ())) in
  List.iter
    (fun (name, body) ->
      let f = ok (root.Io_if.d_create name) in
      let buf = Bytes.of_string body in
      let len = Bytes.length buf in
      let rec push off =
        if off < len then
          push (off + ok (f.Io_if.f_write ~buf ~pos:off ~offset:off ~amount:(len - off)))
      in
      push 0)
    files;
  root

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

(* [p]th percentile of latency [samples] (ns), in µs; 0 when empty. *)
let percentile samples =
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  fun p -> if n = 0 then 0.0 else float_of_int sorted.((n - 1) * p / 100) /. 1e3

(* ---- the httpd server: which stack, which serving shape ---- *)

type config = Freebsd_com | Linux_com | Oskit_com

let config_name = function
  | Freebsd_com -> "FreeBSD"
  | Linux_com -> "Linux"
  | Oskit_com -> "OSKit"

type mode = Reactor | Threads

let mode_name = function Reactor -> "reactor" | Threads -> "threads"

(* The server's COM socket on [host] in [config], and a reader for that
   stack's listen-overflow counter.  The component sees only the COM
   interfaces, so the same httpd serves from every stack. *)
let server_sock config host =
  match config with
  | Freebsd_com ->
      let stack = Clientos.freebsd_host host ~ip:server_ip ~mask in
      ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
        fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
  | Linux_com ->
      let stack = Clientos.linux_host host ~ip:server_ip ~mask in
      ( Linux_sock_com.socket_com stack (Linux_inet.socket stack),
        fun () -> stack.Linux_inet.listen_overflow )
  | Oskit_com ->
      (* The paper's netcomputer shape: the BSD stack over the Linux
         driver through fdev/COM — the only configuration whose receive
         frames cross the glue, so the only one the batched-RX counters
         (Cost.rx_polls) can observe. *)
      let _env, stack = Clientos.oskit_host host ~ip:server_ip ~mask in
      ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
        fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )

(* Spawn the httpd on port 80 of [host] in [mode]; the reactor shape runs
   on [reactor] until [until].  Returns a reader for the server's stats,
   valid once the run is over. *)
let serve_httpd ?max_conns ?max_threads ~mode ~backlog ~reactor ~until host sock root =
  let stats = ref None in
  Clientos.spawn host ~name:"httpd" (fun () ->
      ok (sock.Io_if.so_bind { Io_if.sin_addr = server_ip; sin_port = 80 });
      ok (sock.Io_if.so_listen ~backlog);
      match mode with
      | Reactor ->
          stats := Some (Httpd.serve_reactor ~reactor ~root ~sock ?max_conns ());
          Reactor.run reactor ~until
      | Threads ->
          stats :=
            Some
              (Httpd.serve_threaded
                 ~spawn:(fun f -> Clientos.spawn host f)
                 ~root ~sock ?max_threads ()));
  fun () -> Option.get !stats

(* ---- the blocking BSD client ---- *)

(* Send all of [msg]; a send error ends it early. *)
let send_string s msg =
  let buf = Bytes.of_string msg in
  let rec go off =
    if off < Bytes.length buf then
      match Bsd_socket.so_send s ~buf ~pos:off ~len:(Bytes.length buf - off) with
      | Ok n -> go (off + n)
      | Error _ -> ()
  in
  go 0

(* Read to EOF; true when the response is a 200 whose body is [expect]. *)
let read_200 s ~expect =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create (String.length expect + 256) in
  let rec drain () =
    match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
    | Ok 0 | Error _ -> ()
    | Ok n ->
        Buffer.add_subbytes acc buf 0 n;
        drain ()
  in
  drain ();
  let resp = Buffer.contents acc in
  String.length resp > 12
  && String.sub resp 0 12 = "HTTP/1.0 200"
  && match index_of resp "\r\n\r\n" with
     | Some i -> String.sub resp (i + 4) (String.length resp - i - 4) = expect
     | None -> false
