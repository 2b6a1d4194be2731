(* The receive fast path: VJ header prediction, hashed PCB demux, and
   NAPI-style batched RX.  Header prediction and batching live behind
   Cost.config flags that default off, so every test here saves and
   restores them — the rest of the suite (and the committed Table 1/2
   baselines) must keep seeing the unmodified slow paths.  The hashed
   demux is the only demux.

   The load-bearing properties are equivalence: with the flags on, the
   stacks must deliver byte-identical streams, including under loss and
   reordering where predicted segments interleave with retransmissions
   that must fall back to the full input path; and the hashed demux must
   find exactly the pcb a linear scan of the live set would. *)

let ip = Oskit.ip_of_string

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("fastpath: " ^ Error.to_string e)

(* Flip both fast-path flags around [f], restoring the previous values on
   any exit. *)
let with_fast ?(batch = 8) f =
  Cost.with_config
    (fun c ->
      c.Cost.tcp_fastpath <- true;
      c.Cost.rx_batch <- batch)
    f

(* ------------------------------------------------------------------ *)
(* Equivalence: flags on, transfers stay byte-exact under clean wire,
   loss, and reordering — for both the OSKit (COM-glued) and Linux
   senders.  The netem seed, loss rate, and reorder rate are generated;
   loss/reorder up to 3% forces the predicted/slow-path interleave. *)

let equivalence sender label =
  QCheck.Test.make ~count:5
    ~name:(label ^ ": fastpath byte-exact under loss+reorder")
    QCheck.(triple (int_bound 10_000) (int_bound 30) (int_bound 30))
    (fun (seed, loss_mil, reorder_mil) ->
      with_fast (fun () ->
          let em = Netem.create ~seed () in
          Netem.set_policy em
            { Netem.default_policy with
              loss = float_of_int loss_mil /. 1000.;
              reorder = float_of_int reorder_mil /. 1000.;
              reorder_delay_ns = 400_000 };
          let exact, _, _, _ =
            Test_netem.run_transfer ~netem:em ~sender ~blocks:16 ~blocksize:4096 ()
          in
          exact))

let equivalence_oskit = equivalence Test_netem.Oskit "oskit"
let equivalence_linux = equivalence Test_netem.Linux "linux"

(* Clean in-order transfer with the flags on: byte-exact, the predictor
   actually fires, and nothing falls back (the CI rttsmoke gate's
   property, pinned here at unit scale). *)
let test_clean_transfer_predicts () =
  with_fast (fun () ->
      let exact, _, _, _ =
        Test_netem.run_transfer ~sender:Test_netem.Oskit ~blocks:32 ~blocksize:4096 ()
      in
      Alcotest.(check bool) "byte-exact" true exact;
      Alcotest.(check bool) "prediction fired" true (Cost.counters.Cost.fastpath_hits > 0);
      Alcotest.(check int) "no fallbacks on a clean wire" 0
        Cost.counters.Cost.fastpath_fallbacks;
      Alcotest.(check bool) "batched RX observed" true (Cost.counters.Cost.rx_polls > 0))

(* ------------------------------------------------------------------ *)
(* PCB cache invalidation: when a connection dies (close, TIME_WAIT
   expiry, reset), the hash entry and the one-entry cache must both be
   purged — a stale cache would deliver a new connection's segments to
   a dead pcb. *)

let mask = ip "255.255.255.0"

let make_bsd_pair () =
  let w = World.create () in
  let wire = Wire.create w in
  let mk name mac ipaddr =
    let machine = Machine.create ~name w in
    let _kern = Kernel.create machine in
    let nic = Nic.create ~machine ~wire ~mac ~irq:9 () in
    let stack = Bsd_socket.create_stack machine ~hwaddr:(Nic.mac nic) ~name in
    Native_if.attach stack nic;
    Bsd_socket.ifconfig stack ~addr:(ip ipaddr) ~mask;
    machine, stack
  in
  let ma, sa = mk "fp-a" "\x02\x00\x00\x00\x00\xaa" "10.2.0.1" in
  let mb, sb = mk "fp-b" "\x02\x00\x00\x00\x00\xbb" "10.2.0.2" in
  w, ma, sa, mb, sb

let test_bsd_cache_invalidated_on_close () =
  with_fast (fun () ->
      Cost.reset_counters ();
      Mbuf.pool_reset ();
      let w, ma, sa, mb, sb = make_bsd_pair () in
      let ka = Thread.create_sched ma and kb = Thread.create_sched mb in
      Thread.install ka;
      Thread.install kb;
      let echoed = ref "" in
      Thread.spawn kb ~name:"fp-srv" (fun () ->
          let ls = Bsd_socket.tcp_socket sb in
          ok (Bsd_socket.so_bind ls ~port:7777);
          ok (Bsd_socket.so_listen ls ~backlog:1);
          let c = ok (Bsd_socket.so_accept ls) in
          let buf = Bytes.create 64 in
          let n = ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:64) in
          ignore (ok (Bsd_socket.so_send c ~buf ~pos:0 ~len:n));
          ignore (Bsd_socket.so_close c);
          ignore (Bsd_socket.so_close ls));
      Thread.spawn ka ~name:"fp-cli" (fun () ->
          let s = Bsd_socket.tcp_socket sa in
          ok (Bsd_socket.so_connect s ~dst:(ip "10.2.0.2") ~dport:7777);
          let msg = Bytes.of_string "ping" in
          ignore (ok (Bsd_socket.so_send s ~buf:msg ~pos:0 ~len:4));
          let buf = Bytes.create 64 in
          let n = ok (Bsd_socket.so_recv s ~buf ~pos:0 ~len:64) in
          echoed := Bytes.sub_string buf 0 n;
          ignore (Bsd_socket.so_close s));
      Machine.kick mb;
      Machine.kick ma;
      (* No ~until: run to event exhaustion — the TCP slow timer stops
         ticking once the last pcb (the client's TIME_WAIT) expires, so
         termination itself proves the teardown completed. *)
      World.run w;
      Alcotest.(check string) "echo delivered" "ping" !echoed;
      Alcotest.(check bool) "demux used the cache" true
        (Cost.counters.Cost.pcb_cache_hits > 0);
      Alcotest.(check int) "client hash purged" 0 (Hashtbl.length sa.Bsd_socket.tcp.Tcp.pcb_hash);
      Alcotest.(check int) "server hash purged" 0 (Hashtbl.length sb.Bsd_socket.tcp.Tcp.pcb_hash);
      Alcotest.(check bool) "client last-pcb cache purged" true
        (sa.Bsd_socket.tcp.Tcp.last_pcb = None);
      Alcotest.(check bool) "server last-pcb cache purged" true
        (sb.Bsd_socket.tcp.Tcp.last_pcb = None))

let test_linux_cache_invalidated_on_close () =
  with_fast (fun () ->
      Clientos.reset_globals ();
      Fdev.clear_drivers ();
      let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
      let sa = Clientos.linux_host tb.Clientos.host_a ~ip:(ip "10.0.0.1") ~mask in
      let sb = Clientos.linux_host tb.Clientos.host_b ~ip:(ip "10.0.0.2") ~mask in
      let echoed = ref "" in
      Clientos.spawn tb.Clientos.host_b ~name:"fp-srv" (fun () ->
          let ls = Linux_inet.socket sb in
          Linux_inet.bind sb ls ~port:7777;
          Linux_inet.listen sb ls ~backlog:1;
          let c = ok (Linux_inet.accept sb ls) in
          let buf = Bytes.create 64 in
          let n = ok (Linux_inet.recv sb c ~buf ~pos:0 ~len:64) in
          ignore (ok (Linux_inet.send sb c ~buf ~pos:0 ~len:n));
          Linux_inet.close sb c;
          Linux_inet.close sb ls);
      Clientos.spawn tb.Clientos.host_a ~name:"fp-cli" (fun () ->
          Kclock.sleep_ns 1_000_000;
          let s = Linux_inet.socket sa in
          ok (Linux_inet.connect sa s ~dst:(ip "10.0.0.2") ~dport:7777);
          let msg = Bytes.of_string "ping" in
          ignore (ok (Linux_inet.send sa s ~buf:msg ~pos:0 ~len:4));
          let buf = Bytes.create 64 in
          let n = ok (Linux_inet.recv sa s ~buf ~pos:0 ~len:64) in
          echoed := Bytes.sub_string buf 0 n;
          Linux_inet.close sa s);
      (* Run to exhaustion: the client's TIME_WAIT is a one-shot timer
         (2 s virtual) whose expiry detaches the last hashed socket. *)
      Clientos.run tb ~until:(fun () -> false);
      Alcotest.(check string) "echo delivered" "ping" !echoed;
      Alcotest.(check bool) "demux used the cache" true
        (Cost.counters.Cost.pcb_cache_hits > 0);
      Alcotest.(check int) "client hash purged" 0 (Hashtbl.length sa.Linux_inet.sock_hash);
      Alcotest.(check int) "server hash purged" 0 (Hashtbl.length sb.Linux_inet.sock_hash);
      Alcotest.(check bool) "client last-sock cache purged" true (sa.Linux_inet.last_sock = None);
      Alcotest.(check bool) "server last-sock cache purged" true (sb.Linux_inet.last_sock = None))

(* ------------------------------------------------------------------ *)
(* UDP rides the same hashed demux; a datagram for a closed port must
   still be counted and answered with ICMP port unreachable. *)

let test_udp_hash_demux_and_unreachable () =
  with_fast (fun () ->
      Cost.reset_counters ();
      Mbuf.pool_reset ();
      let w, ma, sa, _mb, sb = make_bsd_pair () in
      let pcb = Udp.create_pcb sb.Bsd_socket.udp in
      ok (Udp.bind sb.Bsd_socket.udp pcb ~port:7);
      Machine.run_in ma (fun () ->
          let upcb = Udp.create_pcb sa.Bsd_socket.udp in
          ignore (Udp.bind sa.Bsd_socket.udp upcb ~port:8);
          Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:7
            ~src:(Bytes.of_string "ping") ~src_pos:0 ~len:4;
          (* And one for a port nobody is listening on. *)
          Udp.output sa.Bsd_socket.udp upcb ~dst:(ip "10.2.0.2") ~dport:99
            ~src:(Bytes.of_string "none") ~src_pos:0 ~len:4);
      World.run w;
      Alcotest.(check int) "bound port delivered via hash" 1 (Queue.length pcb.Udp.rcv_q);
      Alcotest.(check int) "closed port counted" 1 sb.Bsd_socket.udp.Udp.noport;
      Alcotest.(check int) "port unreachable sent" 1 sb.Bsd_socket.udp.Udp.unreach_sent;
      Alcotest.(check bool) "hashed lookup exercised" true
        (Cost.counters.Cost.pcb_cache_hits + Cost.counters.Cost.pcb_cache_misses > 0))

(* ------------------------------------------------------------------ *)
(* Demux equivalence.  The hashed lookup (last-pcb cache, 4-tuple hash,
   listener index) replaced a newest-first linear scan of each stack's
   live set; the scan survives here as the oracle.  Random open /
   connect / listen / passive-open / close / TIME_WAIT / reclaim
   sequences run on a two-host testbed, and after every step each
   stack's hashed lookup must return the very pcb the scan returns for
   every probe: each live connection's 4-tuple, every 4-tuple seen
   earlier in the run (a dead one must miss in both), and a stranger's
   segment to every bound port.  Probes never use address 0 or port 0:
   no segment on the wire does, and an unconnected socket's key is all
   zeros. *)

type 'p demux = {
  keys : unit -> (int32 * int * int) list; (* (raddr, rport, lport), connected pcbs *)
  ports : unit -> int list; (* bound local ports *)
  hashed : src:int32 -> sport:int -> dport:int -> 'p option;
  scan : src:int32 -> sport:int -> dport:int -> 'p option;
  show : 'p -> string;
}

let stranger = ip "10.0.0.77"

(* One probe pass over a stack; [seen] accumulates every connected
   4-tuple the run has produced. *)
let agree name d seen =
  let probe (src, sport, dport) =
    let h = d.hashed ~src ~sport ~dport and s = d.scan ~src ~sport ~dport in
    match h, s with
    | None, None -> ()
    | Some x, Some y when x == y -> ()
    | _ ->
        let show = function None -> "none" | Some p -> d.show p in
        QCheck.Test.fail_reportf "%s (%lx, %d, %d): hash %s, scan %s" name src sport dport
          (show h) (show s)
  in
  List.iter (fun k -> Hashtbl.replace seen k ()) (d.keys ());
  Hashtbl.iter (fun k () -> probe k) seen;
  List.iter (fun port -> if port <> 0 then probe (stranger, 4242, port)) (d.ports ())

let bsd_demux (st : Bsd_socket.stack) =
  let t = st.Bsd_socket.tcp in
  let live () = Dlist.to_list t.Tcp.pcbs in
  { keys =
      (fun () ->
        List.filter_map
          (fun p -> if p.Tcp.rport <> 0 then Some (Tcp.hash_key p) else None)
          (live ()));
    ports = (fun () -> List.map (fun p -> p.Tcp.lport) (live ()));
    hashed = (fun ~src ~sport ~dport -> Tcp.find_pcb t ~src ~sport ~dport);
    scan =
      (fun ~src ~sport ~dport ->
        match
          List.find_opt
            (fun p ->
              p.Tcp.lport = dport && p.Tcp.rport = sport && Int32.equal p.Tcp.raddr src
              && p.Tcp.t_state <> Tcp.Listen)
            (live ())
        with
        | Some _ as r -> r
        | None -> List.find_opt (fun p -> p.Tcp.t_state = Tcp.Listen) (Tcp.listeners_on t dport));
    show = (fun p -> Printf.sprintf "%s:%d" (Tcp.state_name p.Tcp.t_state) p.Tcp.lport) }

let linux_demux (t : Linux_inet.stack) =
  let live () = Dlist.to_list t.Linux_inet.socks in
  { keys =
      (fun () ->
        List.filter_map
          (fun s -> if s.Linux_inet.rport <> 0 then Some (Linux_inet.sock_key s) else None)
          (live ()));
    ports = (fun () -> List.map (fun s -> s.Linux_inet.lport) (live ()));
    hashed = (fun ~src ~sport ~dport -> Linux_inet.find_sock t ~src ~sport ~dport);
    scan =
      (fun ~src ~sport ~dport ->
        match
          List.find_opt
            (fun s ->
              s.Linux_inet.lport = dport && s.Linux_inet.rport = sport
              && Int32.equal s.Linux_inet.raddr src && s.Linux_inet.state <> Linux_inet.Listen)
            (live ())
        with
        | Some _ as r -> r
        | None ->
            List.find_opt
              (fun s -> s.Linux_inet.state = Linux_inet.Listen)
              (Linux_inet.listeners_on t dport));
    show = (fun s -> Printf.sprintf "sock%d:%d" s.Linux_inet.sid s.Linux_inet.lport) }

(* The socket calls one stack offers, blocking where the stack blocks. *)
type ('st, 's) api = {
  socket : 'st -> 's;
  bind : 'st -> 's -> int -> unit;
  listen : 'st -> 's -> unit;
  accept : 'st -> 's -> 's option;
  connect : 'st -> 's -> dst:int32 -> dport:int -> bool;
  drain : 'st -> 's -> unit; (* read until EOF or error *)
  close : 'st -> 's -> unit;
  reclaim : 'st -> unit; (* memory pressure: every TIME_WAIT dies *)
}

let bsd_api =
  { socket = Bsd_socket.tcp_socket;
    bind = (fun _ s port -> ignore (Bsd_socket.so_bind s ~port));
    listen = (fun _ s -> ignore (Bsd_socket.so_listen s ~backlog:8));
    accept = (fun _ s -> Result.to_option (Bsd_socket.so_accept s));
    connect = (fun _ s ~dst ~dport -> Result.is_ok (Bsd_socket.so_connect s ~dst ~dport));
    drain =
      (fun _ s ->
        let buf = Bytes.create 64 in
        while
          match Bsd_socket.so_recv s ~buf ~pos:0 ~len:64 with Ok n -> n > 0 | Error _ -> false
        do () done);
    close = (fun _ s -> ignore (Bsd_socket.so_close s));
    reclaim = (fun st -> Tcp.tcp_reclaim st.Bsd_socket.tcp) }

let linux_api =
  { socket = Linux_inet.socket;
    bind = (fun st s port -> Linux_inet.bind st s ~port);
    listen = (fun st s -> Linux_inet.listen st s ~backlog:8);
    accept = (fun st s -> Result.to_option (Linux_inet.accept st s));
    connect = (fun st s ~dst ~dport -> Result.is_ok (Linux_inet.connect st s ~dst ~dport));
    drain =
      (fun st s ->
        let buf = Bytes.create 64 in
        while
          match Linux_inet.recv st s ~buf ~pos:0 ~len:64 with Ok n -> n > 0 | Error _ -> false
        do () done);
    close = Linux_inet.close;
    reclaim = Linux_inet.lx_reclaim }

type tcp_op =
  | Open (* A: a fresh socket joins A's unused pool *)
  | Connect of int * int option * int (* A: unused socket, explicit lport, B's port *)
  | Listen of int * int (* A: unused socket, port; accepted children join A's connections *)
  | Dial of int option * int (* B: connect from an (explicit) port to A's port *)
  | Close of int (* A: close a connection or listener *)
  | Reclaim
  | Wait (* 1 s: a TIME_WAIT (2 s) expires across two of these *)

let show_tcp_op = function
  | Open -> "open"
  | Connect (i, b, p) ->
      Printf.sprintf "connect #%d%s :%d" i
        (match b with Some l -> Printf.sprintf " from %d" l | None -> "")
        p
  | Listen (i, p) -> Printf.sprintf "listen #%d :%d" i p
  | Dial (b, p) ->
      Printf.sprintf "dial%s :%d" (match b with Some l -> Printf.sprintf " from %d" l | None -> "") p
  | Close i -> Printf.sprintf "close #%d" i
  | Reclaim -> "reclaim"
  | Wait -> "wait"

(* Small port sets make 4-tuples recur: explicit binds reuse the tuple a
   TIME_WAIT pcb still holds, and B's port 81 refuses. *)
let tcp_ops =
  QCheck.(
    make ~shrink:Shrink.list
      ~print:(fun ops -> String.concat "; " (List.map show_tcp_op ops))
      Gen.(
        list_size (int_range 5 30)
          (frequency
             [ (3, return Open);
               ( 4,
                 map3
                   (fun i b p -> Connect (i, b, p))
                   small_nat (opt (oneofl [ 5000; 5001 ])) (oneofl [ 7; 80; 81 ]) );
               (1, map2 (fun i p -> Listen (i, p)) small_nat (oneofl [ 9000; 9001 ]));
               (2, map2 (fun b p -> Dial (b, p)) (opt (oneofl [ 6000; 6001 ])) (oneofl [ 9000; 9001 ]));
               (3, map (fun i -> Close i) small_nat);
               (1, return Reclaim);
               (1, return Wait) ])))

(* Remove and return the [i mod n]th element of a pool. *)
let take pool i =
  match !pool with
  | [] -> None
  | l ->
      let x = List.nth l (i mod List.length l) in
      pool := List.filter (fun y -> y != x) l;
      Some x

let run_tcp_ops ~host ~demux api ops =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  let tb = Clientos.make_testbed ~models:("3c905", "tulip") () in
  let a_ip = ip "10.0.0.1" and b_ip = ip "10.0.0.2" in
  let sa = host tb.Clientos.host_a ~ip:a_ip ~mask in
  let sb = host tb.Clientos.host_b ~ip:b_ip ~mask in
  let on_a f = Clientos.spawn tb.Clientos.host_a f and on_b f = Clientos.spawn tb.Clientos.host_b f in
  let unused = ref [] and conns = ref [] in
  (* Every accepted child is served the same way: drain, then close — so
     the side that closes first ends in TIME_WAIT. *)
  let serve on st ls ~keep =
    on (fun () ->
        let rec loop () =
          match api.accept st ls with
          | Some c ->
              if keep then conns := !conns @ [ c ]
              else on (fun () -> api.drain st c; api.close st c);
              loop ()
          | None -> ()
        in
        loop ())
  in
  List.iter
    (fun port ->
      on_b (fun () ->
          let ls = api.socket sb in
          api.bind sb ls port;
          api.listen sb ls;
          serve on_b sb ls ~keep:false))
    [ 7; 80 ];
  let settle ns =
    let until = World.now tb.Clientos.world + ns in
    Clientos.run tb ~until:(fun () -> World.now tb.Clientos.world >= until)
  in
  settle 5_000_000;
  let seen_a = Hashtbl.create 16 and seen_b = Hashtbl.create 16 in
  let check () =
    agree "A" (demux sa) seen_a;
    agree "B" (demux sb) seen_b
  in
  List.iter
    (fun op ->
      (match op with
      | Open -> on_a (fun () -> unused := !unused @ [ api.socket sa ])
      | Connect (i, lport, dport) -> (
          match take unused i with
          | Some s ->
              conns := !conns @ [ s ];
              on_a (fun () ->
                  Option.iter (api.bind sa s) lport;
                  ignore (api.connect sa s ~dst:b_ip ~dport))
          | None -> ())
      | Listen (i, port) -> (
          match take unused i with
          | Some ls ->
              conns := !conns @ [ ls ];
              on_a (fun () ->
                  api.bind sa ls port;
                  api.listen sa ls;
                  serve on_a sa ls ~keep:true)
          | None -> ())
      | Dial (lport, dport) ->
          on_b (fun () ->
              let s = api.socket sb in
              Option.iter (api.bind sb s) lport;
              if api.connect sb s ~dst:a_ip ~dport then api.drain sb s;
              api.close sb s)
      | Close i -> Option.iter (fun s -> on_a (fun () -> api.close sa s)) (take conns i)
      | Reclaim -> on_a (fun () -> api.reclaim sa)
      | Wait -> ());
      settle (if op = Wait then 1_000_000_000 else 20_000_000);
      check ())
    ops;
  true

let prop_tcp_demux name ~host ~demux api =
  QCheck.Test.make ~count:25 ~name:(name ^ ": hashed demux = linear scan") tcp_ops
    (run_tcp_ops ~host ~demux api)

let prop_bsd_demux = prop_tcp_demux "bsd tcp" ~host:Clientos.freebsd_host ~demux:bsd_demux bsd_api

let prop_linux_demux =
  prop_tcp_demux "linux tcp" ~host:Clientos.linux_host ~demux:linux_demux linux_api

(* The case the random runs found first, pinned: a second socket binds
   the port of a live connection and dials the same peer port.  Unless
   the stack refuses the duplicate 4-tuple (BSD's in_pcbconnect
   EADDRINUSE), the last-pcb cache, the hash and the scan can each pick a
   different pcb for the peer's segments. *)
let reused_tuple = [ Open; Open; Connect (0, Some 5000, 80); Connect (0, Some 5000, 80); Wait ]

let test_reused_tuple ~host ~demux api () =
  Alcotest.(check bool) "hash and scan agree" true (run_tcp_ops ~host ~demux api reused_tuple)

(* UDP: one pcb per local port, wildcard or connected, never both — so
   the exact-then-wildcard hash probes must match the scan's newest-first
   pick.  Calls are synchronous: no threads, no time. *)
type udp_op =
  | Ucreate
  | Ubind of int * int (* pcb, port *)
  | Uconnect of int * int (* pcb, B's port *)
  | Udetach of int

let show_udp_op = function
  | Ucreate -> "create"
  | Ubind (i, p) -> Printf.sprintf "bind #%d :%d" i p
  | Uconnect (i, p) -> Printf.sprintf "connect #%d :%d" i p
  | Udetach i -> Printf.sprintf "detach #%d" i

let udp_ops =
  QCheck.(
    make ~shrink:Shrink.list
      ~print:(fun ops -> String.concat "; " (List.map show_udp_op ops))
      Gen.(
        list_size (int_range 5 40)
          (frequency
             [ (3, return Ucreate);
               (3, map2 (fun i p -> Ubind (i, p)) small_nat (oneofl [ 7; 8; 9 ]));
               (2, map2 (fun i p -> Uconnect (i, p)) small_nat (oneofl [ 53; 54 ]));
               (2, map (fun i -> Udetach i) small_nat) ])))

let udp_demux (t : Udp.t) =
  let live () = Dlist.to_list t.Udp.pcbs in
  { keys =
      (fun () ->
        List.filter_map
          (fun p -> if p.Udp.rport <> 0 then Some (Udp.hash_key p) else None)
          (live ()));
    ports = (fun () -> List.map (fun p -> p.Udp.lport) (live ()));
    hashed = (fun ~src ~sport ~dport -> Udp.lookup t ~src ~sport ~dport);
    scan =
      (fun ~src ~sport ~dport ->
        List.find_opt
          (fun p ->
            p.Udp.lport = dport
            && (p.Udp.rport = 0 || (p.Udp.rport = sport && Int32.equal p.Udp.raddr src)))
          (live ()));
    show = (fun p -> Printf.sprintf "udp:%d" p.Udp.lport) }

let prop_udp_demux =
  QCheck.Test.make ~count:100 ~name:"udp: hashed demux = linear scan" udp_ops (fun ops ->
      Mbuf.pool_reset ();
      let _w, _ma, _sa, _mb, sb = make_bsd_pair () in
      let u = sb.Bsd_socket.udp and peer = ip "10.2.0.1" in
      let pcbs = ref [] and seen = Hashtbl.create 16 in
      let nth i = match !pcbs with [] -> None | l -> Some (List.nth l (i mod List.length l)) in
      List.iter
        (fun op ->
          (match op with
          | Ucreate -> pcbs := !pcbs @ [ Udp.create_pcb u ]
          | Ubind (i, port) -> Option.iter (fun p -> ignore (Udp.bind u p ~port)) (nth i)
          | Uconnect (i, dport) -> Option.iter (fun p -> Udp.connect u p ~dst:peer ~dport) (nth i)
          | Udetach i -> (
              match take pcbs i with Some p -> Udp.detach u p | None -> ()));
          agree "udp" (udp_demux u) seen)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* The NIC ring's burst interface: bounded, FIFO, and draining. *)

let test_nic_rx_burst () =
  let w = World.create () in
  let wire = Wire.create w in
  let ma = Machine.create ~name:"burst-a" w in
  let mb = Machine.create ~name:"burst-b" w in
  let _ = Kernel.create ma and _ = Kernel.create mb in
  let na = Nic.create ~machine:ma ~wire ~mac:"\x02\x00\x00\x00\x00\x01" ~irq:9 () in
  let nb = Nic.create ~machine:mb ~wire ~mac:"\x02\x00\x00\x00\x00\x02" ~irq:9 () in
  ignore na;
  (* No driver opens nb, so no interrupt handler drains it: the five
     frames pile up in the ring, as they would while the CPU is busy. *)
  Machine.run_in ma (fun () ->
      for i = 0 to 4 do
        let f = Bytes.make 64 (Char.chr (Char.code 'a' + i)) in
        Bytes.blit_string "\x02\x00\x00\x00\x00\x02" 0 f 0 6;
        Nic.transmit na f
      done);
  World.run w;
  Alcotest.(check int) "five frames pending" 5 (Nic.rx_pending nb);
  let tag frame = Bytes.get frame 6 in
  let burst = Nic.pop_rx_burst nb ~max:3 in
  Alcotest.(check int) "bounded by the budget" 3 (List.length burst);
  Alcotest.(check (list char)) "oldest first" [ 'a'; 'b'; 'c' ] (List.map tag burst);
  Alcotest.(check int) "two remain" 2 (Nic.rx_pending nb);
  let rest = Nic.pop_rx_burst nb ~max:16 in
  Alcotest.(check (list char)) "drains in order" [ 'd'; 'e' ] (List.map tag rest);
  Alcotest.(check int) "ring empty" 0 (Nic.rx_pending nb);
  Alcotest.(check (list char)) "empty burst" [] (List.map tag (Nic.pop_rx_burst nb ~max:4))

let suite =
  [ QCheck_alcotest.to_alcotest equivalence_oskit;
    QCheck_alcotest.to_alcotest equivalence_linux;
    Alcotest.test_case "clean transfer: predicts, no fallbacks" `Quick
      test_clean_transfer_predicts;
    Alcotest.test_case "bsd: pcb hash+cache purged on close" `Quick
      test_bsd_cache_invalidated_on_close;
    Alcotest.test_case "linux: sock hash+cache purged on close" `Quick
      test_linux_cache_invalidated_on_close;
    Alcotest.test_case "udp: hashed demux + port unreachable" `Quick
      test_udp_hash_demux_and_unreachable;
    QCheck_alcotest.to_alcotest prop_bsd_demux;
    QCheck_alcotest.to_alcotest prop_linux_demux;
    QCheck_alcotest.to_alcotest prop_udp_demux;
    Alcotest.test_case "bsd tcp: connect to a live 4-tuple" `Quick
      (test_reused_tuple ~host:Clientos.freebsd_host ~demux:bsd_demux bsd_api);
    Alcotest.test_case "linux tcp: connect to a live 4-tuple" `Quick
      (test_reused_tuple ~host:Clientos.linux_host ~demux:linux_demux linux_api);
    Alcotest.test_case "nic: rx burst bounded, fifo, draining" `Quick test_nic_rx_burst ]
