(* The testbed every test and bench experiment builds its machines from:
   addresses, the one fresh start and the one teardown of the two-PC
   testbed, two bare FreeBSD hosts for tests below the recipes, the
   role-neutral per-stack serve/connect/stats triple, the memfs and httpd
   server stacks the content experiments serve from, and the blocking
   client's send and receive loops.  It is harness, not an OSKit
   component: it wires the components the way the Clientos recipes do. *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"
let server_ip = ip "10.0.0.2"
let client_ip = ip "10.0.0.1"

let ok = function
  | Ok v -> v
  | Error e -> failwith ("unexpected error: " ^ Error.to_string e)

(* ---- fresh start and teardown ---- *)

(* Clear what a simulation leaves in process-wide state: driver probe
   lists, buffer pools, the timing-wheel registry and the cost counters
   (not the cost configuration, which the experiment owns).  Every test
   ends here, and every fresh testbed starts here. *)
let teardown () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ()

(* A fresh two-PC testbed from cleared globals.  [ncpus] sizes both
   machines (default Cost.config.ncpus); [netem] goes on the wire. *)
let fresh ?(models = ("3c905", "tulip")) ?bandwidth_bps ?latency_ns ?netem ?ncpus () =
  teardown ();
  let make () = Clientos.make_testbed ~models ?bandwidth_bps ?latency_ns () in
  let tb =
    match ncpus with
    | None -> make ()
    | Some n -> Cost.with_config (fun c -> c.Cost.ncpus <- n) make
  in
  Option.iter (fun em -> Wire.set_netem tb.Clientos.wire (Some em)) netem;
  tb

(* Two bare FreeBSD hosts on their own wire, below the recipes: a kernel,
   a card and the stack bound natively, nothing probed.  Host a is
   [name]-a at [net].1, host b is [name]-b at [net].2; [instance]
   suffixes the machine names, which key the per-machine registries. *)
type bsd_pair = {
  world : World.t;
  wire : Wire.t;
  ma : Machine.t;
  mb : Machine.t;
  ka : Thread.sched;
  kb : Thread.sched;
  sa : Bsd_socket.stack;
  sb : Bsd_socket.stack;
}

let bsd_pair ?instance ?(macs = ("\x02\x00\x00\x00\x00\xaa", "\x02\x00\x00\x00\x00\xbb"))
    ~name ~net () =
  let world = World.create () in
  let wire = Wire.create world in
  let host side mac addr =
    let name = name ^ side in
    let mname = match instance with None -> name | Some i -> Printf.sprintf "%s-%d" name i in
    let machine = Machine.create ~name:mname world in
    let kernel = Kernel.create machine in
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
    let stack = Bsd_socket.create_stack machine ~hwaddr:mac ~name in
    Native_if.attach stack nic;
    Bsd_socket.ifconfig stack ~addr:(ip addr) ~mask;
    machine, Kernel.sched kernel, stack
  in
  let ma, ka, sa = host "-a" (fst macs) (net ^ ".1") in
  let mb, kb, sb = host "-b" (snd macs) (net ^ ".2") in
  { world; wire; ma; mb; ka; kb; sa; sb }

(* ---- one host in any of the three configurations ---- *)

type config = Oskit | Freebsd | Linux

let config_name = function Oskit -> "OSKit" | Freebsd -> "FreeBSD" | Linux -> "Linux"

(* A role-neutral socket: blocking send/recv/close over whichever stack
   the configuration dictates, and its receive buffer's current bound.
   [close] returns the stack's verdict (Linux's close cannot fail).  The
   OSKit client's [close] only shuts the connection down, as ttcp does,
   and keeps its descriptor; [release] then closes that descriptor and is
   [Ok ()] on every other socket. *)
type sock = {
  send : bytes -> int -> int;
  recv : bytes -> int -> int;
  close : unit -> (unit, Error.t) result;
  release : unit -> (unit, Error.t) result;
  rcv_buf : unit -> int;
}

(* Host-side protocol counters read after a run: retransmissions prove
   the loss was real; checksum and duplicate drops prove the receiver
   discarded what netem damaged or repeated.  Only Linux counts persist
   probes. *)
type stats = {
  rexmits : unit -> int;
  ip_badsum : unit -> int;
  tcp_badsum : unit -> int;
  dups : unit -> int;
  persist_probes : unit -> int;
}

let bsd_stats (stack : Bsd_socket.stack) =
  let s = stack.Bsd_socket.tcp.Tcp.stats in
  { rexmits = (fun () -> s.Tcp.sndrexmitpack + s.Tcp.fastrexmit);
    ip_badsum = (fun () -> stack.Bsd_socket.ip.Ip.badsum);
    tcp_badsum = (fun () -> s.Tcp.rcvbadsum);
    dups = (fun () -> s.Tcp.rcvdup);
    persist_probes = (fun () -> 0) }

let linux_stats (stack : Linux_inet.stack) =
  { rexmits = (fun () -> stack.Linux_inet.rexmits);
    ip_badsum = (fun () -> stack.Linux_inet.ipbadsum);
    tcp_badsum = (fun () -> stack.Linux_inet.tcpbadsum);
    dups = (fun () -> stack.Linux_inet.rcvdup);
    persist_probes = (fun () -> stack.Linux_inet.persist_probes) }

(* Resize a BSD socket's buffers; an absent side keeps its size. *)
let bsd_size (s : Bsd_socket.tsock) ?snd ?rcv () =
  let pcb = s.Bsd_socket.pcb in
  Tcp.set_buffer_sizes pcb
    ~snd:(Option.value snd ~default:pcb.Tcp.snd_buf.Sockbuf.sb_hiwat)
    ~rcv:(Option.value rcv ~default:pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat)

let no_posix_buf () = invalid_arg "Testbed: the POSIX socket exposes no buffer size"

(* Prepare [host] in [config]; returns (serve, connect, stats):
   [serve ~port k] spawns a server thread that accepts one connection and
   passes its socket to [k]; [connect ~dst ~port k] spawns a client thread
   that connects after 2 ms and passes its socket to [k].  [rcvbuf] sizes
   the accepted socket's receive buffer, [sndbuf] the client's send buffer
   before its handshake (Linux bounds no send queue, so it ignores it);
   the OSKit configuration's POSIX sockets take neither. *)
let setup config host ~addr =
  match config with
  | Oskit ->
      let env, stack = Clientos.oskit_host host ~ip:addr ~mask in
      let of_fd fd ~close ~release =
        { send = (fun b len -> ok (Posix.send env fd b ~pos:0 ~len));
          recv = (fun b len -> ok (Posix.recv env fd b ~pos:0 ~len));
          close;
          release;
          rcv_buf = no_posix_buf }
      in
      let serve ?rcvbuf ~port k =
        if rcvbuf <> None then no_posix_buf ();
        Clientos.spawn host ~name:"server" (fun () ->
            let fd = ok (Posix.socket env Io_if.Sock_stream) in
            ok (Posix.bind env fd { Io_if.sin_addr = addr; sin_port = port });
            ok (Posix.listen env fd ~backlog:2);
            let conn, _ = ok (Posix.accept env fd) in
            k
              (of_fd conn
                 ~close:(fun () -> Posix.close env conn)
                 ~release:(fun () -> Ok ())))
      in
      let connect ?sndbuf ~dst ~port k =
        if sndbuf <> None then no_posix_buf ();
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let fd = ok (Posix.socket env Io_if.Sock_stream) in
            ok (Posix.connect env fd { Io_if.sin_addr = dst; sin_port = port });
            k
              (of_fd fd
                 ~close:(fun () -> Posix.shutdown env fd)
                 ~release:(fun () -> Posix.close env fd)))
      in
      serve, connect, bsd_stats stack
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:addr ~mask in
      let of_tsock s =
        { send = (fun b len -> ok (Bsd_socket.so_send s ~buf:b ~pos:0 ~len));
          recv = (fun b len -> ok (Bsd_socket.so_recv s ~buf:b ~pos:0 ~len));
          close = (fun () -> Bsd_socket.so_close s);
          release = (fun () -> Ok ());
          rcv_buf = (fun () -> s.Bsd_socket.pcb.Tcp.rcv_buf.Sockbuf.sb_hiwat) }
      in
      let serve ?rcvbuf ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let ls = Bsd_socket.tcp_socket stack in
            ok (Bsd_socket.so_bind ls ~port);
            ok (Bsd_socket.so_listen ls ~backlog:2);
            let c = ok (Bsd_socket.so_accept ls) in
            if rcvbuf <> None then bsd_size c ?rcv:rcvbuf ();
            k (of_tsock c))
      in
      let connect ?sndbuf ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let s = Bsd_socket.tcp_socket stack in
            if sndbuf <> None then bsd_size s ?snd:sndbuf ();
            ok (Bsd_socket.so_connect s ~dst ~dport:port);
            k (of_tsock s))
      in
      serve, connect, bsd_stats stack
  | Linux ->
      let stack = Clientos.linux_host host ~ip:addr ~mask in
      let of_sock s =
        { send = (fun b len -> ok (Linux_inet.send stack s ~buf:b ~pos:0 ~len));
          recv = (fun b len -> ok (Linux_inet.recv stack s ~buf:b ~pos:0 ~len));
          close = (fun () -> Ok (Linux_inet.close stack s));
          release = (fun () -> Ok ());
          rcv_buf = (fun () -> s.Linux_inet.rcv_buf_max) }
      in
      let serve ?rcvbuf ~port k =
        Clientos.spawn host ~name:"server" (fun () ->
            let ls = Linux_inet.socket stack in
            Linux_inet.bind stack ls ~port;
            Linux_inet.listen stack ls ~backlog:2;
            let c = ok (Linux_inet.accept stack ls) in
            Option.iter (fun b -> c.Linux_inet.rcv_buf_max <- b) rcvbuf;
            k (of_sock c))
      in
      let connect ?sndbuf:_ ~dst ~port k =
        Clientos.spawn host ~name:"client" (fun () ->
            Kclock.sleep_ns 2_000_000;
            let s = Linux_inet.socket stack in
            ok (Linux_inet.connect stack s ~dst ~dport:port);
            k (of_sock s))
      in
      serve, connect, linux_stats stack

(* ---- the memfs a content experiment serves ---- *)

(* A freshly formatted memfs holding [files] (name, contents), written in
   order; returns the file system with its root. *)
let make_fs ?(dev_bytes = 1 lsl 20) files =
  let fs, root = ok (Fs_glue.newfs_fs (Mem_blkio.make ~bytes:dev_bytes ())) in
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
  fs, root

let make_root ?dev_bytes files = snd (make_fs ?dev_bytes files)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let contains s sub = index_of s sub <> None

(* [p]th percentile of latency [samples] (ns), in µs; 0 when empty. *)
let percentile samples =
  let sorted = Array.of_list (List.sort compare samples) in
  let n = Array.length sorted in
  fun p -> if n = 0 then 0.0 else float_of_int sorted.((n - 1) * p / 100) /. 1e3

(* ---- the httpd server: which stack, which serving shape ---- *)

type mode = Reactor | Threads

let mode_name = function Reactor -> "reactor" | Threads -> "threads"

(* The server's COM socket on [host] in [config], and a reader for that
   stack's listen-overflow counter.  The component sees only the COM
   interfaces, so the same httpd serves from every stack. *)
let server_sock config host =
  match config with
  | Freebsd ->
      let stack = Clientos.freebsd_host host ~ip:server_ip ~mask in
      ( Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack),
        fun () -> stack.Bsd_socket.tcp.Tcp.stats.Tcp.listen_overflow )
  | Linux ->
      let stack = Clientos.linux_host host ~ip:server_ip ~mask in
      ( Linux_sock_com.socket_com stack (Linux_inet.socket stack),
        fun () -> stack.Linux_inet.listen_overflow )
  | Oskit ->
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

(* Read to EOF or error. *)
let drain s =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 4096 in
  let rec go () =
    match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
    | Ok 0 | Error _ -> ()
    | Ok n ->
        Buffer.add_subbytes acc buf 0 n;
        go ()
  in
  go ();
  Buffer.contents acc

(* Parse "Content-Length: N" out of a response header block. *)
let content_length hdr =
  match index_of (String.lowercase_ascii hdr) "content-length:" with
  | None -> None
  | Some i -> (
      let rest = String.sub hdr (i + 15) (String.length hdr - i - 15) in
      let line =
        match String.index_opt rest '\r' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      int_of_string_opt (String.trim line))

(* A Content-Length framer over one connection: [framer s] returns a
   thunk that reads the next (header, body) pair, or None at EOF or on an
   unframeable response. *)
let framer s =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 4096 in
  let consumed = ref 0 in
  let rec fill need =
    if Buffer.length acc - !consumed >= need then true
    else
      match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
      | Ok 0 | Error _ -> false
      | Ok n ->
          Buffer.add_subbytes acc buf 0 n;
          fill need
  in
  let avail () =
    String.sub (Buffer.contents acc) !consumed (Buffer.length acc - !consumed)
  in
  let rec hdr_end () =
    match index_of (avail ()) "\r\n\r\n" with
    | Some i -> Some i
    | None -> if fill (Buffer.length acc - !consumed + 1) then hdr_end () else None
  in
  fun () ->
    match hdr_end () with
    | None -> None
    | Some he -> (
        let hdr = String.sub (avail ()) 0 he in
        match content_length hdr with
        | None -> None
        | Some len ->
            if fill (he + 4 + len) then begin
              let body = String.sub (avail ()) (he + 4) len in
              consumed := !consumed + he + 4 + len;
              if Buffer.length acc - !consumed = 0 then begin
                Buffer.clear acc;
                consumed := 0
              end;
              Some (hdr, body)
            end
            else None)

(* Read to EOF; true when the response is a 200 whose body is [expect]. *)
let read_200 s ~expect =
  let resp = drain s in
  String.length resp > 12
  && String.sub resp 0 12 = "HTTP/1.0 200"
  && match index_of resp "\r\n\r\n" with
     | Some i -> String.sub resp (i + 4) (String.length resp - i - 4) = expect
     | None -> false
