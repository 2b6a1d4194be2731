(* Segmentation and checksum offload on the modern transmit path
   (Cost.config.sg_tx): one tcp_output burst is one super-segment, one
   driver transmit and one glue crossing, and the card cuts the wire
   frames and writes their checksums.  Every wire frame is checked against
   the kit's own In_cksum, the card's malformed requests and the
   fragmenter's TSO drops are counted, and transfers over write sizes, MSS
   and loss stay byte-exact on both attachments.  On receive the card
   verifies TCP checksums: a clean offloaded transfer sums no TCP byte in
   software, a damaged frame gets no verdict and is caught in software,
   and with sg off the stacks sum exactly what they summed before. *)

open Testbed
let pattern = Test_sg.pattern

(* ---- reading wire frames ---- *)

type seg = {
  ip_id : int;
  seq : int;
  flags : int;
  payload : string;
  frame_len : int;
  ip_ok : bool;  (* IP header checksum verifies *)
  tcp_ok : bool;  (* TCP checksum over the pseudo-header verifies *)
}

(* Parse an Ethernet/IPv4/TCP frame; [None] for anything else. *)
let parse f =
  let u8 i = Bytes.get_uint8 f i and u16 i = Bytes.get_uint16_be f i in
  if Bytes.length f < 54 || u16 12 <> 0x0800 || u8 23 <> Ip.proto_tcp then None
  else begin
    let total = u16 16 in
    let tlen = total - 20 in
    let thl = (u8 46 lsr 4) * 4 in
    let src = Bytes.get_int32_be f 26 and dst = Bytes.get_int32_be f 30 in
    Some
      { ip_id = u16 18;
        seq = Int32.to_int (Bytes.get_int32_be f 38) land 0xffffffff;
        flags = u8 47;
        payload = Bytes.sub_string f (34 + thl) (tlen - thl);
        frame_len = Bytes.length f;
        ip_ok = In_cksum.cksum_bytes f ~off:14 ~len:20 = 0;
        tcp_ok =
          In_cksum.cksum_bytes f ~off:34 ~len:tlen
            ~init:(In_cksum.pseudo_header ~src ~dst ~proto:Ip.proto_tcp ~len:tlen)
          = 0 }
  end

(* Every frame the wire carries, oldest first; parsed only after the
   measurement, since In_cksum counts the bytes it sums. *)
let tap wire =
  let frames = ref [] in
  ignore (Wire.attach wire ~rx:(fun f -> frames := f :: !frames));
  fun () -> List.rev !frames

(* ---- one burst, both attachments ---- *)

type attachment = Glue | Native

let attachment_name = function Glue -> "OSKit glue" | Native -> "native"

type pair = {
  tb : Clientos.testbed;
  stack : Bsd_socket.stack;  (* the sender's *)
  peer : Bsd_socket.stack;  (* the receiver's *)
  sock : Bsd_socket.tsock;
  received : Buffer.t;
  eof : bool ref;
  frames : unit -> bytes list;
}

(* A FreeBSD stack at [addr] on [host], attached by [att]. *)
let stack_on att (host : Clientos.host) addr =
  match att with
  | Glue -> fst (Test_sg.oskit_stack host ~addr)
  | Native -> Clientos.freebsd_host host ~ip:addr ~mask

(* A receiver on [host] that accepts one connection on [port] and reads
   it to end of stream. *)
let sink host stack ~port =
  let received = Buffer.create 4096 and eof = ref false in
  Clientos.spawn host ~name:"receiver" (fun () ->
      let l = Bsd_socket.tcp_socket stack in
      ok (Bsd_socket.so_bind l ~port);
      ok (Bsd_socket.so_listen l ~backlog:1);
      let c = ok (Bsd_socket.so_accept l) in
      let buf = Bytes.create 16384 in
      let rec loop () =
        match ok (Bsd_socket.so_recv c ~buf ~pos:0 ~len:16384) with
        | 0 -> eof := true
        | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
      in
      loop ());
  received, eof

(* A sender on [att] connected to a native FreeBSD receiver that reads to
   end of stream. *)
let connected ?netem att =
  let tb = fresh ?netem () in
  let frames = tap tb.Clientos.wire in
  let a = ip "10.0.0.1" and b = ip "10.0.0.2" in
  let stack = stack_on att tb.Clientos.host_a a in
  let peer = Clientos.freebsd_host tb.Clientos.host_b ~ip:b ~mask in
  let received, eof = sink tb.Clientos.host_b peer ~port:7002 and sock = ref None in
  Clientos.spawn tb.Clientos.host_a ~name:"sender" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Bsd_socket.tcp_socket stack in
      ok (Bsd_socket.so_connect s ~dst:b ~dport:7002);
      sock := Some s);
  Clientos.run tb ~until:(fun () -> !sock <> None);
  { tb; stack; peer; sock = Option.get !sock; received; eof; frames }

type burst = {
  xmits : int;  (* driver transmits (card DMA requests) *)
  crossings : int;
  wire : int;  (* wire frames the card sent *)
  sg_xmits : int;
  offloaded : int;  (* TCP checksums the card wrote *)
  segs : seg list;  (* the sender's data frames, in wire order *)
}

(* Queue [data] and a FIN behind a closed congestion window, then open it
   and run one tcp_output: the whole burst leaves in that one call. *)
let burst p data =
  let pcb = p.sock.Bsd_socket.pcb and nic = p.tb.Clientos.host_a.Clientos.nic in
  let before = List.length (p.frames ()) in
  let c = Cost.counters in
  let r =
    Machine.run_in p.tb.Clientos.host_a.Clientos.machine (fun () ->
        pcb.Tcp.snd_cwnd <- 0;
        Alcotest.(check int) "whole write queued" (String.length data)
          (ok (Bsd_socket.so_send p.sock ~buf:(Bytes.of_string data) ~pos:0
                 ~len:(String.length data)));
        ok (Bsd_socket.so_shutdown p.sock);
        pcb.Tcp.snd_cwnd <- 64 * 1024;
        let x0 = Nic.xmit_count nic and w0 = Nic.tx_count nic
        and g0 = c.Cost.glue_crossings and s0 = c.Cost.sg_xmits
        and o0 = c.Cost.csum_offloads in
        Tcp.tcp_output p.stack.Bsd_socket.tcp pcb;
        Nic.xmit_count nic - x0, Nic.tx_count nic - w0, c.Cost.glue_crossings - g0,
        c.Cost.sg_xmits - s0, c.Cost.csum_offloads - o0)
  in
  Clientos.run p.tb ~until:(fun () -> !(p.eof));
  let xmits, wire, crossings, sg_xmits, offloaded = r in
  let mine f = Bytes.get_int32_be f 26 = ip "10.0.0.1" in
  let segs =
    List.filteri (fun i _ -> i >= before) (p.frames ())
    |> List.filter mine |> List.filter_map parse
    |> List.filter (fun s -> s.payload <> "" || s.flags land Tcp.th_fin <> 0)
  in
  { xmits; crossings; wire; sg_xmits; offloaded; segs }

let check_frames ~what p b data =
  let n = List.length b.segs in
  let mtu = p.stack.Bsd_socket.ifp.Netif.if_mtu in
  List.iteri
    (fun i s ->
      let last = i = n - 1 in
      Alcotest.(check bool) (what ^ ": frame fits the MTU") true (s.frame_len <= mtu + 14);
      Alcotest.(check bool) (what ^ ": IP checksum verifies") true s.ip_ok;
      Alcotest.(check bool) (what ^ ": TCP checksum verifies") true s.tcp_ok;
      Alcotest.(check bool) (what ^ ": FIN only on the last frame") last
        (s.flags land Tcp.th_fin <> 0);
      Alcotest.(check bool) (what ^ ": PSH only on the last frame") last
        (s.flags land Tcp.th_push <> 0))
    b.segs;
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check int) (Printf.sprintf "%s: seq %d follows" what (i + 1))
        (a.seq + String.length a.payload) b.seq;
      Alcotest.(check int) (Printf.sprintf "%s: IP id %d follows" what (i + 1))
        ((a.ip_id + 1) land 0xffff) b.ip_id)
    (List.combine (List.filteri (fun i _ -> i < n - 1) b.segs) (List.tl b.segs));
  Alcotest.(check string) (what ^ ": frames carry the burst") data
    (String.concat "" (List.map (fun s -> s.payload) b.segs));
  Alcotest.(check string) (what ^ ": receiver read it") data (Buffer.contents p.received)

let test_burst att () =
  let k = 5 in
  let run sg =
    Test_sg.with_sg_tx sg (fun () ->
        let p = connected att in
        let data = pattern (k * p.sock.Bsd_socket.pcb.Tcp.t_maxseg) in
        let b = burst p data in
        check_frames ~what:(if sg then "sg on" else "sg off") p b data;
        b)
  in
  let crossings n = match att with Glue -> n | Native -> 0 in
  let on = run true in
  Alcotest.(check int) "sg on: one driver transmit" 1 on.xmits;
  Alcotest.(check int) "sg on: one glue crossing" (crossings 1) on.crossings;
  Alcotest.(check int) "sg on: k wire frames" k on.wire;
  Alcotest.(check int) "sg on: sg_xmits counts wire frames" k on.sg_xmits;
  Alcotest.(check int) "sg on: the card wrote every TCP checksum" k on.offloaded;
  Alcotest.(check int) "sg on: k data frames seen" k (List.length on.segs);
  let off = run false in
  Alcotest.(check int) "sg off: one driver transmit per frame" k off.xmits;
  Alcotest.(check int) "sg off: one glue crossing per frame" (crossings k) off.crossings;
  Alcotest.(check int) "sg off: k wire frames" k off.wire;
  Alcotest.(check int) "sg off: the card wrote no checksum" 0 off.offloaded

(* ---- the card alone ---- *)

let card () =
  let world = World.create () in
  let machine = Machine.create world in
  let wire = Wire.create world in
  let frames = tap wire in
  let nic = Nic.create ~machine ~wire ~mac:"\x02\x00\x00\x00\x00\x01" ~irq:5 () in
  nic, frames, world

(* An Ethernet/IPv4/TCP frame as a stack that offloads leaves it: IP
   header checksummed, th_sum holding the pseudo-header sum without the
   length. *)
let tcp_frame ?(ihl = 5) ?(proto = Ip.proto_tcp) ~flags payload =
  let iplen = ihl * 4 in
  let f = Bytes.make (14 + iplen + 20 + String.length payload) '\000' in
  Bytes.blit_string "\x02\x00\x00\x00\x00\x02\x02\x00\x00\x00\x00\x01\x08\x00" 0 f 0 14;
  Bytes.set_uint8 f 14 (0x40 lor ihl);
  Bytes.set_uint16_be f 16 (Bytes.length f - 14);
  Bytes.set_uint16_be f 18 0xfffe;
  Bytes.set_uint8 f 22 64;
  Bytes.set_uint8 f 23 proto;
  let src = ip "10.0.0.1" and dst = ip "10.0.0.2" in
  Bytes.set_int32_be f 26 src;
  Bytes.set_int32_be f 30 dst;
  Bytes.set_uint16_be f 24 (In_cksum.cksum_bytes f ~off:14 ~len:iplen);
  let t = 14 + iplen in
  Bytes.set_uint16_be f t 80;
  Bytes.set_uint16_be f (t + 2) 4242;
  Bytes.set_int32_be f (t + 4) 0xfffff000l;
  Bytes.set_uint8 f (t + 12) 0x50;
  Bytes.set_uint8 f (t + 13) flags;
  Bytes.set_uint16_be f (t + 14) 8192;
  Bytes.set_uint16_be f (t + 16)
    (In_cksum.fold (In_cksum.pseudo_header ~src ~dst ~proto:Ip.proto_tcp ~len:0));
  Bytes.blit_string payload 0 f (t + 20) (String.length payload);
  f

let test_card_cuts () =
  let nic, frames, world = card () in
  let payload = pattern 4000 in
  let f = tcp_frame ~flags:(Tcp.th_ack lor Tcp.th_push lor Tcp.th_fin) payload in
  Cost.reset_counters ();
  (* Headers in their own fragment, payload split at odd offsets. *)
  Nic.transmit_v nic ~offload:(Nic.Tso 1000)
    (Test_sg.frags_of_cuts (Bytes.to_string f) [ 54; 55; 1777; 3001 ]);
  (* A pure ACK the driver padded to the minimum frame: the card sums the
     IP packet, not the padding. *)
  let ack = tcp_frame ~flags:Tcp.th_ack "" in
  Nic.transmit nic ~offload:Nic.Csum (Bytes.cat ack (Bytes.make (60 - Bytes.length ack) '\000'));
  World.run world;
  let segs = List.filter_map parse (frames ()) in
  Alcotest.(check int) "4 segments and one ACK" 5 (List.length segs);
  Alcotest.(check int) "two requests" 2 (Nic.xmit_count nic);
  Alcotest.(check int) "one burst" 1 Cost.counters.Cost.tso_bursts;
  Alcotest.(check int) "cut into 4 frames" 4 Cost.counters.Cost.tso_frames;
  Alcotest.(check int) "5 checksums written" 5 Cost.counters.Cost.csum_offloads;
  Alcotest.(check int) "4 gathered wire frames" 4 Cost.counters.Cost.sg_xmits;
  List.iteri
    (fun i s ->
      Alcotest.(check bool) "IP checksum" true s.ip_ok;
      Alcotest.(check bool) "TCP checksum" true s.tcp_ok;
      if i < 4 then begin
        Alcotest.(check int) "IP id wraps on" ((0xfffe + i) land 0xffff) s.ip_id;
        Alcotest.(check int) "seq wraps on" ((0xfffff000 + (i * 1000)) land 0xffffffff) s.seq;
        Alcotest.(check bool) "FIN and PSH only last" (i = 3)
          (s.flags land (Tcp.th_fin lor Tcp.th_push) <> 0)
      end)
    segs;
  Alcotest.(check string) "payload in order" payload
    (String.concat "" (List.map (fun s -> s.payload) (List.filteri (fun i _ -> i < 4) segs)))

(* Count every drop, never raise: each malformed request is refused for
   its reason and nothing reaches the wire. *)
let test_card_refuses () =
  let nic, frames, world = card () in
  Cost.reset_counters ();
  let good = tcp_frame ~flags:Tcp.th_ack (pattern 3000) in
  Nic.transmit nic ~offload:Nic.Csum (tcp_frame ~proto:Ip.proto_udp ~flags:0 "udp");
  Nic.transmit nic ~offload:(Nic.Tso 1460) (Bytes.sub good 0 40);
  Nic.transmit nic ~offload:(Nic.Tso 1000) (tcp_frame ~ihl:6 ~flags:Tcp.th_ack (pattern 3000));
  Nic.transmit_v nic ~offload:(Nic.Tso 1000)
    (Test_sg.frags_of_cuts (Bytes.to_string good) [ 40 ]);
  Nic.transmit nic ~offload:(Nic.Tso 0) (Bytes.copy good);
  World.run world;
  Alcotest.(check int) "nothing sent" 0 (List.length (frames ()));
  Alcotest.(check int) "nothing counted as sent" 0 (Nic.tx_count nic);
  List.iter
    (fun (r, name, n) -> Alcotest.(check int) name n (Nic.offload_refused nic r))
    [ Nic.Not_tcp, "non-TCP and truncated", 2; Nic.Ip_options, "IP options", 1;
      Nic.Split_headers, "headers split", 1; Nic.Bad_mss, "mss <= 0", 1 ];
  Alcotest.(check int) "all counted globally" 5 Cost.counters.Cost.offload_refused

(* The card's receive verdict: yes for a whole, option-less,
   unfragmented TCP packet whose sum verifies, padding or not; no verdict
   for anything it cannot check whole or that fails the sum. *)
let test_card_rx_verdict () =
  (* [tcp_frame] with a full TCP checksum, as a sender leaves it. *)
  let valid ?ihl ?proto payload =
    let f = tcp_frame ?ihl ?proto ~flags:Tcp.th_ack payload in
    let t = 14 + ((Bytes.get_uint8 f 14 land 0xf) * 4) in
    let tlen = Bytes.length f - t in
    Bytes.set_uint16_be f (t + 16) 0;
    Bytes.set_uint16_be f (t + 16)
      (In_cksum.cksum_bytes f ~off:t ~len:tlen
         ~init:
           (In_cksum.pseudo_header ~src:(ip "10.0.0.1") ~dst:(ip "10.0.0.2")
              ~proto:Ip.proto_tcp ~len:tlen));
    f
  in
  let good = valid (pattern 1001) in
  let with_byte f i v =
    let f = Bytes.copy f in
    Bytes.set_uint8 f i v;
    f
  in
  let ack = valid "" in
  List.iter
    (fun (name, expect, f) -> Alcotest.(check bool) name expect (Nic.rx_csum_verified f))
    [ "a good odd-length segment", true, good;
      "a pure ACK padded to the minimum frame", true,
      Bytes.cat ack (Bytes.make (60 - Bytes.length ack) '\000');
      "one payload byte damaged", false,
      with_byte good 100 (Bytes.get_uint8 good 100 lxor 0x40);
      "an IP fragment (MF set)", false, with_byte good 20 0x20;
      "IP options", false, valid ~ihl:6 (pattern 100);
      "not TCP", false, valid ~proto:Ip.proto_udp (pattern 100);
      "truncated below its IP length", false, Bytes.sub good 0 (Bytes.length good - 10) ]

(* A TSO packet whose segments no longer fit the MTU reaches the IP
   fragmenter, which drops and counts it instead of fragmenting; netstat
   shows it with the card's counters. *)
let test_fragmenter_drops_tso () =
  Test_sg.with_sg_tx true (fun () ->
      let p = connected Native in
      let mss = p.sock.Bsd_socket.pcb.Tcp.t_maxseg in
      Machine.run_in p.tb.Clientos.host_a.Clientos.machine (fun () ->
          ignore (ok (Bsd_socket.so_send p.sock ~buf:(Bytes.of_string (pattern mss)) ~pos:0 ~len:mss)));
      Clientos.run p.tb ~until:(fun () ->
          let pcb = p.sock.Bsd_socket.pcb in
          pcb.Tcp.snd_una = pcb.Tcp.snd_max);
      let ifp = p.stack.Bsd_socket.ifp in
      ifp.Netif.if_mtu <- 1000;
      Machine.run_in p.tb.Clientos.host_a.Clientos.machine (fun () ->
          p.sock.Bsd_socket.pcb.Tcp.snd_cwnd <- 64 * 1024;
          ignore
            (ok (Bsd_socket.so_send p.sock ~buf:(Bytes.of_string (pattern (3 * mss))) ~pos:0
                   ~len:(3 * mss))));
      Alcotest.(check int) "dropped at the fragmenter" 1 p.stack.Bsd_socket.ip.Ip.tso_drops;
      Alcotest.(check int) "nothing fragmented" 0 p.stack.Bsd_socket.ip.Ip.ofragments;
      let netstat = Bsd_socket.netstat p.stack in
      List.iter
        (fun line ->
          Alcotest.(check bool) ("netstat: " ^ line) true (contains netstat line))
        [ "1 TSO packets dropped at the IP fragmenter";
          Printf.sprintf "%d offload bursts cut into %d wire frames"
            Cost.counters.Cost.tso_bursts Cost.counters.Cost.tso_frames;
          Printf.sprintf "%d transmit checksums offloaded" Cost.counters.Cost.csum_offloads;
          "0 offload requests refused by the card" ])

(* ---- end to end ---- *)

(* The card writes real checksums: frames netem damages on a TSO stream
   fail the receiver's TCP checksum and are retransmitted. *)
let test_corruption_caught () =
  Test_sg.with_sg_tx true (fun () ->
      let em =
        Netem.create ~seed:11
          ~policy:{ Netem.default_policy with corrupt = 0.05; corrupt_min_len = 1000 }
          ()
      in
      let p = connected ~netem:em Glue in
      let data = pattern (128 * 1024) in
      Clientos.spawn p.tb.Clientos.host_a ~name:"writer" (fun () ->
          ignore
            (ok (Bsd_socket.so_send p.sock ~buf:(Bytes.of_string data) ~pos:0
                   ~len:(String.length data)));
          ignore (Bsd_socket.so_shutdown p.sock));
      Clientos.run p.tb ~until:(fun () -> !(p.eof));
      Alcotest.(check bool) "bursts were cut by the card" true
        (Cost.counters.Cost.tso_frames > Cost.counters.Cost.tso_bursts);
      Alcotest.(check bool) "damaged frames failed the receiver's TCP checksum" true
        (p.peer.Bsd_socket.tcp.Tcp.stats.Tcp.rcvbadsum > 0);
      Alcotest.(check string) "stream survived byte-exact" data (Buffer.contents p.received))

(* ---- receive checksum offload ---- *)

type received = {
  sender : Bsd_socket.stack;
  receiver : Bsd_socket.stack;
  got : string;
}

(* [data] from a native FreeBSD sender to a receiver on [att] that reads
   to end of stream. *)
let receive ?netem att data =
  let tb = fresh ?netem () in
  let a = ip "10.0.0.1" and b = ip "10.0.0.2" in
  let sender = Clientos.freebsd_host tb.Clientos.host_a ~ip:a ~mask in
  let receiver = stack_on att tb.Clientos.host_b b in
  let got, eof = sink tb.Clientos.host_b receiver ~port:7003 in
  Clientos.spawn tb.Clientos.host_a ~name:"sender" (fun () ->
      Kclock.sleep_ns 2_000_000;
      let s = Bsd_socket.tcp_socket sender in
      ok (Bsd_socket.so_connect s ~dst:b ~dport:7003);
      ignore
        (ok (Bsd_socket.so_send s ~buf:(Bytes.of_string data) ~pos:0 ~len:(String.length data)));
      ignore (Bsd_socket.so_shutdown s));
  Clientos.run tb ~until:(fun () -> !eof);
  { sender; receiver; got = Buffer.contents got }

let tcp_stats st = st.Bsd_socket.tcp.Tcp.stats

(* Clean, offloaded both ways: the only bytes either stack sums are the
   20-byte IP headers, one per packet sent and one per packet received;
   the receiver summed no TCP segment, and every received segment, on
   both stacks, carried the card's verdict. *)
let test_rx_verified att () =
  let data = pattern (64 * 1024) in
  let r = Test_sg.with_sg_tx true (fun () -> receive att data) in
  Alcotest.(check string) "byte-exact" data r.got;
  let rx = tcp_stats r.receiver and tx = tcp_stats r.sender in
  Alcotest.(check int) "the receiver summed no TCP segment in software" 0 rx.Tcp.rcvswcsum;
  Alcotest.(check int) "nor did the sender" 0 tx.Tcp.rcvswcsum;
  Alcotest.(check int) "every received segment verified by the card"
    (rx.Tcp.rcvpack + tx.Tcp.rcvpack) Cost.counters.Cost.csum_rx_verified;
  let ip_headers st = st.Bsd_socket.ip.Ip.opackets + st.Bsd_socket.ip.Ip.ipackets in
  Alcotest.(check int) "only IP headers were summed"
    (20 * (ip_headers r.receiver + ip_headers r.sender))
    Cost.counters.Cost.checksummed_bytes;
  let netstat = Bsd_socket.netstat r.receiver in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("netstat: " ^ line) true (contains netstat line))
    [ Printf.sprintf "%d received segments verified by the card"
        Cost.counters.Cost.csum_rx_verified;
      "0 received segments summed in software" ]

(* Frames netem damages get no verdict: the receiver sums them, drops
   them as bad, and the stream still arrives byte-exact. *)
let test_rx_corrupt_withheld att () =
  let data = pattern (128 * 1024) in
  let em =
    Netem.create ~seed:11
      ~policy:{ Netem.default_policy with corrupt = 0.05; corrupt_min_len = 1000 }
      ()
  in
  let r = Test_sg.with_sg_tx true (fun () -> receive ~netem:em att data) in
  let rx = tcp_stats r.receiver in
  Alcotest.(check bool) "damaged segments failed the software sum" true (rx.Tcp.rcvbadsum > 0);
  let tx = tcp_stats r.sender in
  Alcotest.(check int) "each segment was verified by the card or summed in software"
    (rx.Tcp.rcvpack + tx.Tcp.rcvpack)
    (Cost.counters.Cost.csum_rx_verified + rx.Tcp.rcvswcsum + tx.Tcp.rcvswcsum);
  Alcotest.(check bool) "the card verified the clean ones" true
    (Cost.counters.Cost.csum_rx_verified > 0);
  Alcotest.(check string) "byte-exact" data r.got

(* sg off: no verdicts, every segment summed in software, and the summed
   byte count is the one the stacks paid before receive offload existed
   (136,928 bytes for this transfer, on either attachment). *)
let test_rx_sg_off att () =
  let data = pattern (64 * 1024) in
  let r = Test_sg.with_sg_tx false (fun () -> receive att data) in
  Alcotest.(check string) "byte-exact" data r.got;
  let rx = tcp_stats r.receiver and tx = tcp_stats r.sender in
  Alcotest.(check int) "nothing verified" 0 Cost.counters.Cost.csum_rx_verified;
  Alcotest.(check int) "every segment summed in software" (rx.Tcp.rcvpack + tx.Tcp.rcvpack)
    (rx.Tcp.rcvswcsum + tx.Tcp.rcvswcsum);
  Alcotest.(check int) "checksummed bytes as before receive offload" 136_928
    Cost.counters.Cost.checksummed_bytes

let tso_byte_exact =
  QCheck.Test.make ~count:12
    ~name:"tso: byte-exact over write sizes x MSS x 0-3% loss, both attachments"
    (* No shrinker: each case is a whole simulated transfer. *)
    (QCheck.make
       ~print:(fun (w, mss, l, native) ->
         Printf.sprintf "%d-byte writes, mss %d, %d%% loss, %s" w mss l
           (attachment_name (if native then Native else Glue)))
       QCheck.Gen.(
         quad (int_range 1 65536) (oneofl [ 536; 1460; 8960 ]) (int_range 0 3) bool))
    (fun (write, mss, loss_pct, native) ->
      Cost.with_config
        (fun c ->
          c.Cost.sg_tx <- true;
          c.Cost.tcp_mss <- mss)
        (fun () ->
          let em =
            Netem.create ~seed:(write + loss_pct)
              ~policy:{ Netem.default_policy with loss = float_of_int loss_pct /. 100.0 }
              ()
          in
          let blocks = max 2 (min 4096 (98304 / write)) in
          let byte_exact, _, _, _ =
            Test_netem.run_transfer ~netem:em
              ~sender:(if native then Freebsd else Oskit)
              ~blocks ~blocksize:write ()
          in
          byte_exact && Cost.counters.Cost.offload_refused = 0))

let suite =
  [ Alcotest.test_case "burst: one transmit, k checked frames (OSKit glue)" `Quick
      (test_burst Glue);
    Alcotest.test_case "burst: one transmit, k checked frames (native)" `Quick
      (test_burst Native);
    Alcotest.test_case "card: cuts a super-frame from an iovec" `Quick test_card_cuts;
    Alcotest.test_case "card: refuses malformed requests, counted" `Quick test_card_refuses;
    Alcotest.test_case "card: receive checksum verdicts" `Quick test_card_rx_verdict;
    Alcotest.test_case "ip: a TSO packet at the fragmenter is dropped, counted" `Quick
      test_fragmenter_drops_tso;
    Alcotest.test_case "netem corruption on a TSO stream is caught" `Quick
      test_corruption_caught;
    Alcotest.test_case "rx csum: the card verifies, no TCP byte summed (OSKit glue)" `Quick
      (test_rx_verified Glue);
    Alcotest.test_case "rx csum: the card verifies, no TCP byte summed (native)" `Quick
      (test_rx_verified Native);
    Alcotest.test_case "rx csum: corrupt frames get no verdict (OSKit glue)" `Quick
      (test_rx_corrupt_withheld Glue);
    Alcotest.test_case "rx csum: corrupt frames get no verdict (native)" `Quick
      (test_rx_corrupt_withheld Native);
    Alcotest.test_case "rx csum: sg off sums as before (OSKit glue)" `Quick
      (test_rx_sg_off Glue);
    Alcotest.test_case "rx csum: sg off sums as before (native)" `Quick
      (test_rx_sg_off Native);
    QCheck_alcotest.to_alcotest tso_byte_exact ]
