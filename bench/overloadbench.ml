(* overloadbench — survival under deliberate overload, measured.

   Three attacks, each against both protocol stacks (or the httpd built
   over them), each with its defense off and on, on the deterministic
   virtual-time testbed:

     flood   a 10x spoofed-source SYN flood against a depth-4 listener
             while legitimate clients download; the metric is the
             goodput the LEGITIMATE clients still see, and how many of
             them get served at all.
     alloc   a ttcp-style bulk transfer while the seeded allocation
             injector fails 0.1%-1% of pooled packet-buffer allocations
             (in bursts): the transfer must stay byte-exact and every
             failure must surface as a counted drop, never a crash.
     loris   Slowloris against the event-driven httpd: attackers park
             half-finished requests to exhaust the connection budget;
             with the guard on, the header deadline reclaims them and
             late legitimate clients are still served.

   Everything is driven by the Cost.config overload knobs, all of which
   default off — the calibrated Table 1/2/rtt baselines never see any of
   this machinery. *)

type server = Sv_freebsd | Sv_linux

let server_name = function Sv_freebsd -> "FreeBSD" | Sv_linux -> "Linux"

let pattern i = (i * 131) lxor (i lsr 8) land 0xff

(* Set the overload knobs for one run and restore the seed defaults
   after, re-seeding the allocation injector on both edges. *)
let with_knobs ?(syn_defense = false) ?(syncache_size = 64) ?(alloc_fail_prob = 0.0)
    ?(alloc_fail_seed = 1) ?(alloc_fail_burst = 1) ?(httpd_guard = false)
    ?(httpd_header_deadline_ns = 1_000_000_000) ?(httpd_shed_hiwat = 0) f =
  Fun.protect ~finally:Memfault.reset @@ fun () ->
  Cost.with_config (fun c ->
      c.Cost.syn_defense <- syn_defense;
      c.Cost.syncache_size <- syncache_size;
      c.Cost.alloc_fail_prob <- alloc_fail_prob;
      c.Cost.alloc_fail_seed <- alloc_fail_seed;
      c.Cost.alloc_fail_burst <- alloc_fail_burst;
      c.Cost.httpd_guard <- httpd_guard;
      c.Cost.httpd_header_deadline_ns <- httpd_header_deadline_ns;
      c.Cost.httpd_shed_hiwat <- httpd_shed_hiwat)
  @@ fun () ->
  Memfault.reset ();
  f ()

(* The calls these runs make on either server stack, behind closures. *)
type conn = {
  send : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  recv : buf:bytes -> pos:int -> len:int -> (int, Error.t) result;
  close : unit -> unit;
}

type stack = {
  listen : port:int -> backlog:int -> unit -> conn; (* returns the accept call *)
  connect : port:int -> (conn, Error.t) result; (* to the server address *)
  syncache : unit -> int * int * int; (* added, completed, listen overflow *)
  nomem_drops : unit -> int;
}

let stack server host ~ip =
  match server with
  | Sv_linux ->
      let st = Clientos.linux_host host ~ip ~mask:Testbed.mask in
      let conn s =
        { send = (fun ~buf ~pos ~len -> Linux_inet.send st s ~buf ~pos ~len);
          recv = (fun ~buf ~pos ~len -> Linux_inet.recv st s ~buf ~pos ~len);
          close = (fun () -> Linux_inet.close st s) }
      in
      { listen =
          (fun ~port ~backlog ->
            let ls = Linux_inet.socket st in
            Linux_inet.bind st ls ~port;
            Linux_inet.listen st ls ~backlog;
            fun () -> conn (Testbed.ok (Linux_inet.accept st ls)));
        connect =
          (fun ~port ->
            let s = Linux_inet.socket st in
            Result.map
              (fun () -> conn s)
              (Linux_inet.connect st s ~dst:Testbed.server_ip ~dport:port));
        syncache =
          (fun () ->
            ( st.Linux_inet.syncache_added,
              st.Linux_inet.syncache_completed + st.Linux_inet.syncookies_validated,
              st.Linux_inet.listen_overflow ));
        nomem_drops = (fun () -> st.Linux_inet.nomem_drops) }
  | Sv_freebsd ->
      let st = Clientos.freebsd_host host ~ip ~mask:Testbed.mask in
      let conn s =
        { send = (fun ~buf ~pos ~len -> Bsd_socket.so_send s ~buf ~pos ~len);
          recv = (fun ~buf ~pos ~len -> Bsd_socket.so_recv s ~buf ~pos ~len);
          close = (fun () -> ignore (Bsd_socket.so_close s)) }
      in
      let stats = st.Bsd_socket.tcp.Tcp.stats in
      { listen =
          (fun ~port ~backlog ->
            let ls = Bsd_socket.tcp_socket st in
            Testbed.ok (Bsd_socket.so_bind ls ~port);
            Testbed.ok (Bsd_socket.so_listen ls ~backlog);
            fun () -> conn (Testbed.ok (Bsd_socket.so_accept ls)));
        connect =
          (fun ~port ->
            let s = Bsd_socket.tcp_socket st in
            Result.map
              (fun () -> conn s)
              (Bsd_socket.so_connect s ~dst:Testbed.server_ip ~dport:port));
        syncache =
          (fun () ->
            ( stats.Tcp.syncache_added,
              stats.Tcp.syncache_completed + stats.Tcp.syncookies_validated,
              stats.Tcp.listen_overflow ));
        nomem_drops = (fun () -> stats.Tcp.nomem_drops + st.Bsd_socket.ip.Ip.nomem_drops) }

(* One crafted option-less TCP segment out of [cstack] with a spoofable
   source — the attacker's packet injector. *)
let send_raw_tcp cstack ~src ~sport ~dst ~dport ~seq ~flags =
  let m = Mbuf.m_gethdr () in
  ignore (Mbuf.m_put m 20);
  let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
  Bytes.set_uint16_be d o sport;
  Bytes.set_uint16_be d (o + 2) dport;
  Bytes.set_int32_be d (o + 4) (Int32.of_int (seq land 0xffffffff));
  Bytes.set_int32_be d (o + 8) 0l;
  Bytes.set d (o + 12) (Char.chr ((20 / 4) lsl 4));
  Bytes.set d (o + 13) (Char.chr flags);
  Bytes.set_uint16_be d (o + 14) 8192;
  Bytes.set_uint16_be d (o + 16) 0;
  Bytes.set_uint16_be d (o + 18) 0;
  let sum =
    In_cksum.cksum_chain m ~off:0 ~len:20
      ~init:(In_cksum.pseudo_header ~src ~dst ~proto:Ip.proto_tcp ~len:20)
  in
  Bytes.set_uint16_be d (o + 16) (if sum = 0 then 0xffff else sum);
  Ip.output cstack.Bsd_socket.ip ~proto:Ip.proto_tcp ~src ~dst m

(* ------------------------------------------------------------------ *)
(* flood: legitimate goodput through a spoofed SYN flood               *)

type flood_result = {
  fl_server : server;
  fl_defense : bool;
  fl_flood : int;   (* spoofed SYNs injected *)
  fl_legit : int;   (* legitimate clients *)
  fl_served : int;  (* ... that were served byte-exact *)
  fl_bytes : int;   (* legitimate bytes delivered *)
  fl_duration_ns : int;
  fl_goodput_mbit : float;
  fl_syncache_added : int;
  fl_completed : int; (* handshakes finished from cache or cookie *)
  fl_listen_overflow : int;
}

(* [legit] clients each download [bytes_per_client] from the server while
   [flood] spoofed SYNs hammer the same listener.  The clients are plain
   blocking BSD sockets: a client whose connect fails (the undefended
   stack's backlog is full of embryonic corpses) counts as unserved. *)
let flood_run ~server ~defense ~flood ~legit ~bytes_per_client () =
  with_knobs ~syn_defense:defense ~syncache_size:64 (fun () ->
      let tb = Testbed.fresh () in
      let chost = tb.Clientos.host_a in
      let cstack = Clientos.freebsd_host chost ~ip:Testbed.client_ip ~mask:Testbed.mask in
      let served = ref 0 and finished = ref 0 and bytes_got = ref 0 in
      let t_start = ref max_int and t_end = ref 0 in
      let block = Bytes.init 4096 (fun i -> Char.chr (pattern i)) in
      let sb = stack server tb.Clientos.host_b ~ip:Testbed.server_ip in
      Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
          let accept = sb.listen ~port:7900 ~backlog:4 in
          for _ = 1 to legit do
            let c = accept () in
            (* Push bytes_per_client of patterned data, then close. *)
            let rec push sent =
              if sent < bytes_per_client then begin
                let n = min 4096 (bytes_per_client - sent) in
                match c.send ~buf:block ~pos:0 ~len:n with
                | Ok k when k > 0 -> push (sent + k)
                | Ok _ -> push sent
                | Error _ -> ()
              end
            in
            push 0;
            c.close ()
          done);
      (* The flood: every SYN from a distinct spoofed same-subnet source,
         so the SYN-ACKs die waiting on ARP for hosts that do not exist.
         One warm-up SYN resolves the attacker's own ARP entry so the
         burst is not throttled by the bounded ARP waiter queue. *)
      Clientos.spawn chost ~name:"flood" (fun () ->
          Kclock.sleep_ns 1_000_000;
          send_raw_tcp cstack ~src:(Testbed.ip "10.0.0.99") ~sport:1999 ~dst:Testbed.server_ip
            ~dport:7900 ~seq:1 ~flags:Tcp.th_syn;
          Kclock.sleep_ns 500_000;
          for i = 0 to flood - 1 do
            send_raw_tcp cstack
              ~src:(Testbed.ip (Printf.sprintf "10.0.1.%d" (1 + (i mod 250))))
              ~sport:(2000 + i) ~dst:Testbed.server_ip ~dport:7900 ~seq:(7 * i)
              ~flags:Tcp.th_syn
          done);
      for i = 0 to legit - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 500_000));
            let t0 = Machine.now chost.Clientos.machine in
            if t0 < !t_start then t_start := t0;
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:Testbed.server_ip ~dport:7900 with
            | Error _ -> ()
            | Ok () ->
                let buf = Bytes.create 4096 in
                let got = ref 0 and mism = ref 0 in
                let rec drain () =
                  match Bsd_socket.so_recv s ~buf ~pos:0 ~len:4096 with
                  | Ok 0 | Error _ -> ()
                  | Ok n ->
                      for j = 0 to n - 1 do
                        if Char.code (Bytes.get buf j) <> pattern ((!got + j) mod 4096)
                        then incr mism
                      done;
                      got := !got + n;
                      drain ()
                in
                drain ();
                bytes_got := !bytes_got + !got;
                if !got = bytes_per_client && !mism = 0 then incr served);
            ignore (Bsd_socket.so_close s);
            let t1 = Machine.now chost.Clientos.machine in
            if t1 > !t_end then t_end := t1;
            incr finished)
      done;
      Clientos.run tb ~until:(fun () -> !finished >= legit);
      let dur = max 1 (!t_end - !t_start) in
      let added, completed, overflow = sb.syncache () in
      { fl_server = server; fl_defense = defense; fl_flood = flood;
        fl_legit = legit; fl_served = !served; fl_bytes = !bytes_got;
        fl_duration_ns = dur;
        fl_goodput_mbit = 8.0 *. float_of_int !bytes_got /. float_of_int dur *. 1000.0;
        fl_syncache_added = added; fl_completed = completed;
        fl_listen_overflow = overflow })

(* ------------------------------------------------------------------ *)
(* alloc: bulk transfer under injected allocation failure              *)

type alloc_result = {
  al_server : server;
  al_prob : float;
  al_bytes : int;
  al_byte_exact : bool;
  al_goodput_mbit : float;
  al_draws : int;
  al_failures : int;
  al_nomem_drops : int; (* stack-counted drops on the receiver+sender *)
}

let alloc_run ~server ~prob ~seed ~bytes () =
  with_knobs ~alloc_fail_prob:prob ~alloc_fail_seed:seed ~alloc_fail_burst:2
    (fun () ->
      let tb = Testbed.fresh () in
      let mism = ref 0 and received = ref 0 and done_flag = ref false in
      let t_start = ref 0 and t_end = ref 0 in
      let chost = tb.Clientos.host_a in
      let send_all send buf len =
        let rec go off =
          if off < len then
            match send ~buf ~pos:off ~len:(len - off) with
            | Ok n when n > 0 -> go (off + n)
            | Ok _ -> Kclock.sleep_ns 1_000_000; go off
            | Error Error.Nomem -> Kclock.sleep_ns 5_000_000; go off
            | Error e -> failwith ("overloadbench send: " ^ Error.to_string e)
        in
        go 0
      in
      let fill block sent n =
        for i = 0 to n - 1 do
          Bytes.set block i (Char.chr (pattern (sent + i)))
        done
      in
      let sa = stack server chost ~ip:Testbed.client_ip in
      let sb = stack server tb.Clientos.host_b ~ip:Testbed.server_ip in
      Clientos.spawn tb.Clientos.host_b ~name:"srv" (fun () ->
          let c = sb.listen ~port:7901 ~backlog:2 () in
          let buf = Bytes.create 4096 in
          let rec loop () =
            match Testbed.ok (c.recv ~buf ~pos:0 ~len:4096) with
            | 0 -> c.close (); done_flag := true
            | n ->
                for i = 0 to n - 1 do
                  if Char.code (Bytes.get buf i) <> pattern (!received + i) then incr mism
                done;
                received := !received + n;
                loop ()
          in
          loop ());
      Clientos.spawn chost ~name:"cli" (fun () ->
          Kclock.sleep_ns 1_000_000;
          t_start := Machine.now chost.Clientos.machine;
          let rec connect tries =
            match sa.connect ~port:7901 with
            | Ok c -> c
            | Error _ when tries < 50 ->
                Kclock.sleep_ns 10_000_000;
                connect (tries + 1)
            | Error e -> failwith ("overloadbench connect: " ^ Error.to_string e)
          in
          let c = connect 0 in
          let block = Bytes.create 4096 in
          let rec push sent =
            if sent < bytes then begin
              let n = min 4096 (bytes - sent) in
              fill block sent n;
              send_all c.send block n;
              push (sent + n)
            end
          in
          push 0;
          c.close ();
          t_end := Machine.now chost.Clientos.machine);
      Clientos.run tb ~until:(fun () -> !done_flag);
      let dur = max 1 (!t_end - !t_start) in
      { al_server = server; al_prob = prob; al_bytes = bytes;
        al_byte_exact = (!done_flag && !mism = 0 && !received = bytes);
        al_goodput_mbit = 8.0 *. float_of_int !received /. float_of_int dur *. 1000.0;
        al_draws = Memfault.draws (); al_failures = Memfault.failures ();
        al_nomem_drops = sa.nomem_drops () + sb.nomem_drops () })

(* ------------------------------------------------------------------ *)
(* loris: Slowloris vs the httpd header deadline                       *)

type loris_result = {
  lo_guard : bool;
  lo_loris : int;
  lo_legit : int;
  lo_served : int;          (* legitimate 200s, byte-exact *)
  lo_deadline_closed : int;
  lo_shed : int;            (* over max_conns, silently dropped *)
  lo_peak_active : int;
}

(* [loris] attackers each park a half-finished request.  The server's
   connection budget is exactly [loris] — without the guard the attackers
   own every slot when the [legit] clients arrive at t=100ms and each one
   is shed on accept; with the 50 ms header deadline the slots have
   already been reclaimed. *)
let loris_run ~guard ~loris ~legit () =
  with_knobs ~httpd_guard:guard ~httpd_header_deadline_ns:50_000_000 (fun () ->
      let tb = Testbed.fresh () in
      let server = tb.Clientos.host_b and chost = tb.Clientos.host_a in
      let expect = String.init 1024 (fun i -> Char.chr (pattern i)) in
      let root = Testbed.make_root [ "index.html", expect ] in
      let stack = Clientos.freebsd_host server ~ip:Testbed.server_ip ~mask:Testbed.mask in
      let sock = Freebsd_glue.socket_com stack (Bsd_socket.tcp_socket stack) in
      let cstack = Clientos.freebsd_host chost ~ip:Testbed.client_ip ~mask:Testbed.mask in
      let served = ref 0 and legit_done = ref 0 in
      let all () = !legit_done >= legit in
      let server_stats =
        Testbed.serve_httpd ~mode:Testbed.Reactor ~max_conns:loris ~backlog:32
          ~reactor:(Reactor.create ()) ~until:all server sock root
      in
      for i = 0 to loris - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "loris%d" i) (fun () ->
            Kclock.sleep_ns (3_000_000 + (i * 100_000));
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:Testbed.server_ip ~dport:80 with
            | Error _ -> ()
            | Ok () ->
                Testbed.send_string s "GET /index.html HTTP/1.0\r\nX-Slow: yes\r\n";
                (* Hold the connection; never finish the headers. *)
                let buf = Bytes.create 256 in
                ignore (Bsd_socket.so_recv s ~buf ~pos:0 ~len:256));
            ignore (Bsd_socket.so_close s))
      done;
      for i = 0 to legit - 1 do
        Clientos.spawn chost ~name:(Printf.sprintf "legit%d" i) (fun () ->
            Kclock.sleep_ns (100_000_000 + (i * 200_000));
            let s = Bsd_socket.tcp_socket cstack in
            (match Bsd_socket.so_connect s ~dst:Testbed.server_ip ~dport:80 with
            | Error _ -> ()
            | Ok () ->
                Testbed.send_string s "GET /index.html HTTP/1.0\r\n\r\n";
                if Testbed.read_200 s ~expect then incr served);
            ignore (Bsd_socket.so_close s);
            incr legit_done)
      done;
      Clientos.run tb ~until:all;
      let st = server_stats () in
      { lo_guard = guard; lo_loris = loris; lo_legit = legit; lo_served = !served;
        lo_deadline_closed = st.Httpd.deadline_closed; lo_shed = st.Httpd.shed;
        lo_peak_active = st.Httpd.peak_active })
