type mac = string

let broadcast = "\xff\xff\xff\xff\xff\xff"

(* Hardware receive-side scaling: the controller hashes each accepted
   frame into one of N RX queues, and each queue interrupts through its
   own MSI-X vector, so a flow's receive work starts on the CPU its vector
   is routed to.  [classify] models the on-card hash/indirection table the
   driver programs; it runs in the device, so it charges no CPU cycles. *)
type rss = {
  r_queues : bytes Queue.t array;
  r_vectors : int array; (* irq line raised by each queue *)
  r_classify : bytes -> int;
}

(* A transmit offload request, the card's view of the driver's
   ip_summed/gso_size: [Csum] writes the TCP checksum of one frame; [Tso
   mss] cuts one super-frame into [mss]-byte segments and writes every
   segment's IP and TCP checksums. *)
type offload = Csum | Tso of int

(* Why the card refused an offload request (one counter each). *)
type refusal = Not_tcp | Ip_options | Split_headers | Bad_mss

let refusal_index = function Not_tcp -> 0 | Ip_options -> 1 | Split_headers -> 2 | Bad_mss -> 3

type t = {
  machine : Machine.t;
  wire : Wire.t;
  mac : mac;
  irq : int;
  rx_ring : int;
  rx_q : bytes Queue.t;
  mutable rss : rss option;
  mutable port : Wire.port option;
  mutable promisc : bool;
  mutable dropped : int;
  mutable tx : int; (* wire frames *)
  mutable xmits : int; (* transmit requests, each one DMA *)
  refused : int array; (* offload requests refused, by [refusal_index] *)
  mutable rx : int;
}

let dst_of frame = if Bytes.length frame >= 6 then Bytes.sub_string frame 0 6 else ""

let create ~machine ~wire ~mac ~irq ?(rx_ring = 32) () =
  if String.length mac <> 6 then invalid_arg "Nic.create: mac must be 6 bytes";
  let t =
    { machine; wire; mac; irq; rx_ring; rx_q = Queue.create (); rss = None;
      port = None; promisc = false; dropped = 0; tx = 0; xmits = 0;
      refused = Array.make 4 0; rx = 0 }
  in
  let rx frame =
    let dst = dst_of frame in
    if t.promisc || String.equal dst t.mac || String.equal dst broadcast then
      match t.rss with
      | None ->
          if Queue.length t.rx_q >= t.rx_ring then t.dropped <- t.dropped + 1
          else begin
            Queue.add frame t.rx_q;
            t.rx <- t.rx + 1;
            Machine.raise_irq t.machine ~irq:t.irq
          end
      | Some r ->
          let q = r.r_classify frame mod Array.length r.r_queues in
          if Queue.length r.r_queues.(q) >= t.rx_ring then
            t.dropped <- t.dropped + 1
          else begin
            Queue.add frame r.r_queues.(q);
            t.rx <- t.rx + 1;
            Cost.count_rss_steered ();
            Machine.raise_irq t.machine ~irq:r.r_vectors.(q)
          end
  in
  t.port <- Some (Wire.attach wire ~rx);
  t

(* [set_rss t ~vectors ~classify] programs the indirection table: queue [q]
   receives frames with [classify frame mod n = q] and interrupts on line
   [vectors.(q)].  Each queue has its own [rx_ring]-deep ring.  Clearing
   ([None]) restores the single-queue card. *)
let set_rss t ~vectors ~classify =
  if Array.length vectors = 0 then invalid_arg "Nic.set_rss: no queues";
  t.rss <-
    Some
      { r_queues = Array.init (Array.length vectors) (fun _ -> Queue.create ());
        r_vectors = Array.copy vectors;
        r_classify = classify }

let clear_rss t = t.rss <- None
let rx_queues t = match t.rss with None -> 1 | Some r -> Array.length r.r_queues

let mac t = t.mac
let irq t = t.irq

let min_frame = 60

let wire_out t frame =
  let frame =
    if Bytes.length frame >= min_frame then frame
    else begin
      let padded = Bytes.make min_frame '\000' in
      Bytes.blit frame 0 padded 0 (Bytes.length frame);
      padded
    end
  in
  t.tx <- t.tx + 1;
  let at = Machine.now t.machine in
  match t.port with
  | Some port -> ignore (Wire.send t.wire port frame ~at)
  | None -> assert false

(* The card's own one's-complement adder (the kit's In_cksum lives above
   the machine layer): the 16-bit big-endian words of [len] bytes at
   [off], an odd last byte padded with zero, not folded. *)
let ones_sum b off len =
  let s = ref 0 and i = ref off in
  let last = off + len - 1 in
  while !i < last do
    s := !s + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i = last then s := !s + (Bytes.get_uint8 b last lsl 8);
  !s

let finish sum =
  let rec fold s = if s > 0xffff then fold ((s land 0xffff) + (s lsr 16)) else s in
  lnot (fold sum) land 0xffff

(* Ethernet / IPv4 / TCP offsets within a frame. *)
let eth_hlen = 14
let ip_off = eth_hlen
let tcp_off = eth_hlen + 20
let th_fin = 0x01
let th_push = 0x08

(* The header check every offload engine makes before touching a frame,
   on the iovec [frags] of [len] bytes the DMA engine reads: Ethernet +
   option-less IPv4 + TCP, every header inside the first fragment, an IP
   total length the frame holds, and a positive segment size.  Returns
   the length of the headers and of the IP packet (link padding beyond it
   is not the card's to sum or cut). *)
let offload_headers frags ~len o =
  match o, frags with
  | Tso mss, _ when mss <= 0 -> Error Bad_mss
  | _, [] -> Error Not_tcp
  | (Csum | Tso _), (b, off, first) :: _ ->
      let u8 i = Bytes.get_uint8 b (off + i) in
      if len < tcp_off + 20 then Error Not_tcp
      else if first < tcp_off + 20 then Error Split_headers
      else if Bytes.get_uint16_be b (off + 12) <> 0x0800 || u8 ip_off lsr 4 <> 4
              || u8 (ip_off + 9) <> 6
      then Error Not_tcp
      else if u8 ip_off land 0xf <> 5 then Error Ip_options
      else begin
        let hlen = tcp_off + (u8 (tcp_off + 12) lsr 4 * 4) in
        let ip_len = Bytes.get_uint16_be b (off + ip_off + 2) in
        if hlen < tcp_off + 20 || ip_off + ip_len < hlen || ip_off + ip_len > len then
          Error Not_tcp
        else if hlen > first then Error Split_headers
        else Ok (hlen, ip_len)
      end

(* Write the TCP checksum of one frame.  The stack left the pseudo-header
   sum over the addresses and protocol (in_pseudo) in th_sum; the card
   sums the segment over it and adds the segment's length. *)
let tcp_cksum frame =
  let tlen = Bytes.get_uint16_be frame (ip_off + 2) - 20 in
  let sum = finish (ones_sum frame tcp_off tlen + tlen) in
  Bytes.set_uint16_be frame (tcp_off + 16) (if sum = 0 then 0xffff else sum);
  Cost.count_csum_offload ()

(* Cut the super-frame in [frags] ([hlen] bytes of headers in the first
   fragment, [len] bytes of headers and payload) into [mss]-byte
   segments, reading the payload in place: each segment gets the headers
   with its own IP total length, IP id + i, IP header checksum and TCP
   seq + i*mss, FIN and PSH only on the last, and its own TCP checksum. *)
let segment frags ~len ~hlen ~mss =
  let hb, ho, _ = List.hd frags in
  let payload = len - hlen in
  let n = max 1 ((payload + mss - 1) / mss) in
  let id = Bytes.get_uint16_be hb (ho + ip_off + 4) in
  let seq = Bytes.get_int32_be hb (ho + tcp_off + 4) in
  let flags = Bytes.get_uint8 hb (ho + tcp_off + 13) in
  (* A cursor over the iovec: [skip] bytes of [rest]'s head are consumed. *)
  let rest = ref frags and skip = ref hlen in
  let rec take dst pos n =
    if n > 0 then
      match !rest with
      | [] -> invalid_arg "Nic.segment: iovec too short"
      | (b, o, l) :: tl ->
          if !skip >= l then begin
            rest := tl;
            skip := !skip - l;
            take dst pos n
          end
          else begin
            let k = min n (l - !skip) in
            Bytes.blit b (o + !skip) dst pos k;
            skip := !skip + k;
            take dst (pos + k) (n - k)
          end
  in
  List.init n (fun i ->
      let plen = min mss (payload - (i * mss)) in
      let f = Bytes.create (hlen + plen) in
      Bytes.blit hb ho f 0 hlen;
      take f hlen plen;
      Bytes.set_uint16_be f (ip_off + 2) (hlen - ip_off + plen);
      Bytes.set_uint16_be f (ip_off + 4) ((id + i) land 0xffff);
      Bytes.set_uint16_be f (ip_off + 10) 0;
      Bytes.set_uint16_be f (ip_off + 10) (finish (ones_sum f ip_off 20));
      Bytes.set_int32_be f (tcp_off + 4) (Int32.add seq (Int32.of_int (i * mss)));
      if i < n - 1 then Bytes.set_uint8 f (tcp_off + 13) (flags land lnot (th_fin lor th_push));
      tcp_cksum f;
      f)

(* Receive checksum offload: the card's verdict on one received frame, as
   an e1000-class card writes it into the frame's receive descriptor.  The
   card checks only what it can check whole: an Ethernet frame carrying an
   option-less, unfragmented IPv4/TCP packet that the frame holds, whose
   TCP checksum over the pseudo-header verifies.  Anything else, and a
   frame that fails the sum, gets no verdict and is left to the stack's
   software checksum, which then counts the damage.  The check runs in the
   device and charges nothing; it reads the frame as it arrived, since
   nothing writes a received frame before the driver asks. *)
let rx_csum_verified frame =
  let len = Bytes.length frame in
  let u8 i = Bytes.get_uint8 frame i and u16 i = Bytes.get_uint16_be frame i in
  len >= tcp_off + 20
  && u16 12 = 0x0800
  && u8 ip_off = 0x45
  && u8 (ip_off + 9) = 6
  && u16 (ip_off + 6) land 0x3fff = 0
  &&
  let tlen = u16 (ip_off + 2) - 20 in
  tlen >= 20 && tcp_off + tlen <= len
  && u8 (tcp_off + 12) lsr 4 * 4 >= 20
  && u8 (tcp_off + 12) lsr 4 * 4 <= tlen
  && finish
       (ones_sum frame (ip_off + 12) 8 + 6 + tlen + ones_sum frame tcp_off tlen)
     = 0

let frags_len frags = List.fold_left (fun a (_, _, n) -> a + n) 0 frags

(* Bus-master DMA out of driver memory is charged per byte, cheaper than a
   CPU copy; the offload engine runs in the device and charges nothing
   more.  Every transmit request is one DMA. *)
let dma t len =
  t.xmits <- t.xmits + 1;
  Cost.charge_cycles (max min_frame len)

(* An offload request over the iovec [frags] the DMA engine reads; [whole
   ()] is the same bytes as one buffer the card may keep.  A malformed
   request is refused and counted, and nothing is sent.  Returns the
   number of wire frames. *)
let offload_xmit t o frags ~whole =
  let len = frags_len frags in
  match offload_headers frags ~len o with
  | Error r ->
      t.refused.(refusal_index r) <- t.refused.(refusal_index r) + 1;
      Cost.count_offload_refused ();
      0
  | Ok (hlen, ip_len) -> (
      dma t len;
      match o with
      | Csum ->
          let f = whole () in
          tcp_cksum f;
          wire_out t f;
          1
      | Tso mss ->
          let frames = segment frags ~len:(ip_off + ip_len) ~hlen ~mss in
          List.iter (wire_out t) frames;
          let n = List.length frames in
          Cost.count_tso ~frames:n;
          n)

let transmit t ?offload frame =
  match offload with
  | None ->
      dma t (Bytes.length frame);
      wire_out t frame
  | Some o ->
      ignore (offload_xmit t o [ (frame, 0, Bytes.length frame) ] ~whole:(fun () -> frame))

(* Scatter-gather transmit: the controller walks an iovec of fragments,
   reading each in place — the one unavoidable gather on a zero-copy send
   path, and it happens here, in the DMA engine, at DMA rate (charged per
   byte by [dma] above), not as a CPU memcpy.  The blit in [gather] is the
   simulated medium's bookkeeping, exactly like the [Bytes.sub] a linear
   transmit does in the driver; a super-frame is cut straight from the
   iovec instead.  Each wire frame the request becomes counts as one
   gathered transmit. *)
let gather frags =
  let frame = Bytes.create (frags_len frags) in
  let at = ref 0 in
  List.iter
    (fun (data, off, n) ->
      Bytes.blit data off frame !at n;
      at := !at + n)
    frags;
  frame

let transmit_v t ?offload frags =
  let frames =
    match offload with
    | None ->
        let frame = gather frags in
        dma t (Bytes.length frame);
        wire_out t frame;
        1
    | Some o -> offload_xmit t o frags ~whole:(fun () -> gather frags)
  in
  for _ = 1 to frames do
    Cost.count_sg_xmit ()
  done

let pop_rx t = Queue.take_opt t.rx_q

(* [pop_rx_q t ~q] drains one RSS queue (queue 0 is the legacy ring when
   RSS is off, so single-queue drivers and multi-queue drivers share the
   accessor). *)
let pop_rx_q t ~q =
  match t.rss with
  | None -> if q = 0 then Queue.take_opt t.rx_q else None
  | Some r ->
      if q < 0 || q >= Array.length r.r_queues then None
      else Queue.take_opt r.r_queues.(q)

(* Bounded burst for a NAPI-style poll: up to [max] frames, oldest first. *)
let pop_rx_burst t ~max =
  let rec take n acc =
    if n >= max then List.rev acc
    else
      match Queue.take_opt t.rx_q with
      | None -> List.rev acc
      | Some frame -> take (n + 1) (frame :: acc)
  in
  take 0 []

let rx_pending t = Queue.length t.rx_q
let set_promiscuous t v = t.promisc <- v
let rx_dropped t = t.dropped
let tx_count t = t.tx
let xmit_count t = t.xmits
let offload_refused t r = t.refused.(refusal_index r)
let rx_count t = t.rx
