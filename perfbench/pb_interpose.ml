(* COM interposition: the benchmark measures the kit's inner layers from
   outside, by handing components wrapped objects instead of the real
   ones -- the paper's separability turned on the kit itself.

   Each wrapper forwards every method to the real object and keeps its
   COM identity: the wrapper's unknown forwards query, addref and release
   to the real object's, so refcounts and the other views (asyncio,
   filemap) are the real object's own.  The one exception is the socket's
   sendv view, which the socket wrapper's unknown returns wrapped so that
   the zero-copy send path is timed too.  Wrappers are installed only on
   the traced run; they read clocks and charge nothing. *)

open Pb_trace

let span ~name ~layer ~kind ?items f =
  let sp = enter ~name ~layer ~kind () in
  match f () with
  | v ->
      leave ?items sp;
      v
  | exception e ->
      leave ?items sp;
      raise e

let netio ~name ~layer (n : Io_if.netio) : Io_if.netio =
  { n with
    Io_if.push = (fun io -> span ~name ~layer ~kind:Busy (fun () -> n.Io_if.push io));
    push_v =
      (fun ios ->
        span ~name ~layer ~kind:Busy ~items:(List.length ios) (fun () -> n.Io_if.push_v ios)) }

(* The driver's etherdev: the receive netio the stack hands the driver and
   the transmit netio the driver hands back are both wrapped. *)
let etherdev (ed : Io_if.etherdev) : Io_if.etherdev =
  { ed with
    Io_if.ed_open =
      (fun ~recv ->
        let recv = netio ~name:"com.rx_push" ~layer:l_com recv in
        Result.map
          (netio ~name:"linux_dev.xmit_push" ~layer:l_linux_dev)
          (ed.Io_if.ed_open ~recv)) }

(* A socket.  Calls that can block are Wait spans until the socket is put
   in nonblocking mode; after that every call is busy work. *)
let rec socket (s : Io_if.socket) : Io_if.socket =
  let nonblock = ref false in
  let call op ?(blocking = true) f =
    let kind = if blocking && not !nonblock then Wait else Busy in
    span ~name:("freebsd_net.so_" ^ op) ~layer:l_sock ~kind f
  in
  let wrap_sendv (v : Io_if.sendv) =
    { v with
      Io_if.sv_send_frags =
        (fun ~frags ~pos -> call "sendv" (fun () -> v.Io_if.sv_send_frags ~frags ~pos)) }
  in
  let real = s.Io_if.so_unknown in
  let unknown =
    { Com.query =
        (fun (type a) (iid : a Iid.t) : (a, Error.t) result ->
          match Iid.same_witness iid Io_if.sendv_iid with
          | Some Iid.Eq -> Result.map wrap_sendv (real.Com.query iid)
          | None -> real.Com.query iid);
      addref = real.Com.addref;
      release = real.Com.release }
  in
  { Io_if.so_unknown = unknown;
    so_bind = (fun a -> call "bind" ~blocking:false (fun () -> s.Io_if.so_bind a));
    so_listen =
      (fun ~backlog -> call "listen" ~blocking:false (fun () -> s.Io_if.so_listen ~backlog));
    so_accept =
      (fun () ->
        call "accept" (fun () -> Result.map (fun (c, a) -> socket c, a) (s.Io_if.so_accept ())));
    so_connect = (fun a -> call "connect" (fun () -> s.Io_if.so_connect a));
    so_send = (fun ~buf ~pos ~len -> call "send" (fun () -> s.Io_if.so_send ~buf ~pos ~len));
    so_recv = (fun ~buf ~pos ~len -> call "recv" (fun () -> s.Io_if.so_recv ~buf ~pos ~len));
    so_sendto =
      (fun ~buf ~pos ~len ~dst -> call "sendto" (fun () -> s.Io_if.so_sendto ~buf ~pos ~len ~dst));
    so_recvfrom =
      (fun ~buf ~pos ~len -> call "recvfrom" (fun () -> s.Io_if.so_recvfrom ~buf ~pos ~len));
    so_getsockname =
      (fun () -> call "getsockname" ~blocking:false (fun () -> s.Io_if.so_getsockname ()));
    so_setsockopt =
      (fun name v ->
        let r = call "setsockopt" ~blocking:false (fun () -> s.Io_if.so_setsockopt name v) in
        if name = "nonblock" && Result.is_ok r then nonblock := v <> 0;
        r);
    so_shutdown = (fun () -> call "shutdown" ~blocking:false (fun () -> s.Io_if.so_shutdown ()));
    so_close = (fun () -> call "close" ~blocking:false (fun () -> s.Io_if.so_close ())) }

let socket_factory (sf : Io_if.socket_factory) : Io_if.socket_factory =
  { sf with Io_if.sf_create = (fun ty -> Result.map socket (sf.Io_if.sf_create ty)) }

(* A directory: every lookup is timed, and subdirectories it returns are
   wrapped in turn. *)
let rec dir (d : Io_if.dir) : Io_if.dir =
  { d with
    Io_if.d_lookup =
      (fun name ->
        span ~name:"netbsd_fs.lookup" ~layer:l_fs ~kind:Busy (fun () ->
            match d.Io_if.d_lookup name with
            | Ok (Io_if.Node_dir sub) -> Ok (Io_if.Node_dir (dir sub))
            | r -> r)) }

let blkio (b : Io_if.blkio) : Io_if.blkio =
  { b with
    Io_if.bio_read =
      (fun ~buf ~pos ~offset ~amount ->
        span ~name:"fdev.blkio_read" ~layer:l_blkio ~kind:Busy (fun () ->
            b.Io_if.bio_read ~buf ~pos ~offset ~amount));
    bio_write =
      (fun ~buf ~pos ~offset ~amount ->
        span ~name:"fdev.blkio_write" ~layer:l_blkio ~kind:Busy (fun () ->
            b.Io_if.bio_write ~buf ~pos ~offset ~amount)) }
