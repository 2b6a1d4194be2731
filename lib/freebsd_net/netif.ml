(* ENCAPSULATED LEGACY CODE — if_ethersubr.c: the BSD network-interface
 * layer.  An ifnet carries the interface addresses and the link to the
 * driver below; ether_output prepends the 14-byte header and hands the
 * frame down, ether_input strips it and dispatches on ethertype to the
 * protocols that registered above (ARP, IP).
 *)

let eth_hlen = 14
let ethertype_ip = 0x0800
let ethertype_arp = 0x0806
let ether_broadcast = "\xff\xff\xff\xff\xff\xff"

(* if_capabilities bits (the donor's IFCAP_RXCSUM, IFCAP_TXCSUM and
   IFCAP_TSO4). *)
let ifcap_rxcsum = 0x0001
let ifcap_txcsum = 0x0002
let ifcap_tso4 = 0x0100

type ifnet = {
  if_name : string;
  mutable if_hwaddr : string; (* learned from the bound device *)
  mutable if_addr : int32; (* IP, host order *)
  mutable if_mask : int32;
  mutable if_mtu : int; (* payload above the ether header *)
  mutable if_xmit : Mbuf.mbuf -> unit; (* full frame to the driver *)
  mutable if_capabilities : int; (* ifcap_* offloads the attachment carries *)
  (* The donor's send queue and start routine.  While a train is open
     ([if_train] > 0) ether_output queues frames on [if_snd] instead of
     handing each to [if_xmit]; closing the outermost train calls
     [if_start], which must take every queued frame.  A driver that
     installs no start routine is never batched. *)
  if_snd : Mbuf.mbuf Queue.t;
  mutable if_start : (unit -> unit) option;
  mutable if_train : int; (* open trains, nested *)
  mutable if_protos : (int * (Mbuf.mbuf -> unit)) list; (* ethertype -> input *)
  mutable if_ipackets : int;
  mutable if_opackets : int;
  mutable if_idrops : int; (* input frames dropped for want of an mbuf *)
  mutable if_oerrors : int; (* output frames the driver did not send *)
  mutable if_starts : int; (* if_start drains *)
  mutable if_queued : int; (* frames those drains carried *)
}

let create ~name ~hwaddr =
  if String.length hwaddr <> 6 then invalid_arg "Netif.create: hwaddr";
  { if_name = name; if_hwaddr = hwaddr; if_addr = 0l; if_mask = 0l; if_mtu = 1500;
    if_xmit = (fun _ -> ()); if_capabilities = 0; if_snd = Queue.create (); if_start = None;
    if_train = 0; if_protos = []; if_ipackets = 0; if_opackets = 0; if_idrops = 0; if_oerrors = 0;
    if_starts = 0; if_queued = 0 }

let set_proto_input ifp ~ethertype handler =
  ifp.if_protos <- (ethertype, handler) :: List.remove_assoc ethertype ifp.if_protos

let ifconfig ifp ~addr ~mask =
  ifp.if_addr <- addr;
  ifp.if_mask <- mask

let same_subnet ifp other =
  Int32.logand other ifp.if_mask = Int32.logand ifp.if_addr ifp.if_mask

(* Whether offload [cap] is in effect: the attachment carries it and the
   modern transmit path is on.  Gating on [Cost.config.sg_tx] follows
   Linux's feature rule — no TSO on a device without scatter-gather, no
   scatter-gather without checksum offload — so the one knob turns on all
   of them together, the receive checksum with them. *)
let offload ifp cap = Cost.config.Cost.sg_tx && ifp.if_capabilities land cap <> 0

(* Wire frames one full frame becomes at the card. *)
let wire_frames m = Mbuf.m_wire_frames m ~th:(eth_hlen + 20)

(* ether_output: m is the payload (IP datagram / ARP message). *)
let ether_output ifp m ~dst_mac ~ethertype =
  let m = Mbuf.m_prepend m eth_hlen in
  let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
  Bytes.blit_string dst_mac 0 d o 6;
  Bytes.blit_string ifp.if_hwaddr 0 d (o + 6) 6;
  Bytes.set d (o + 12) (Char.chr (ethertype lsr 8));
  Bytes.set d (o + 13) (Char.chr (ethertype land 0xff));
  ifp.if_opackets <- ifp.if_opackets + 1;
  if ifp.if_train > 0 then begin
    ifp.if_queued <- ifp.if_queued + 1;
    Queue.push m ifp.if_snd
  end
  else ifp.if_xmit m

(* Transmit trains.  A caller that emits a run of frames without sleeping
   (one tcp_output) brackets it with [train_open]/[train_close]; the
   frames reach the driver in one [if_start] when the outermost train
   closes.  Batching is the glue's modern transmit path, so a train opens
   only with [Cost.config.sg_tx] on and a start routine installed;
   [train_open] says whether it did, and only then may the caller close. *)
let train_open ifp =
  Cost.config.Cost.sg_tx && Option.is_some ifp.if_start
  && begin
       ifp.if_train <- ifp.if_train + 1;
       true
     end

let train_close ifp =
  ifp.if_train <- ifp.if_train - 1;
  match ifp.if_start with
  | Some start when ifp.if_train = 0 && not (Queue.is_empty ifp.if_snd) ->
      ifp.if_starts <- ifp.if_starts + 1;
      start ()
  | _ -> ()

(* ether_input: m is the full frame.  Consumes the chain: protocol inputs
   take ownership, drops retire it. *)
let ether_input_frame ifp m =
  if Mbuf.m_length m < eth_hlen then Mbuf.m_freem m (* runt frame *)
  else begin
    ifp.if_ipackets <- ifp.if_ipackets + 1;
    let m = Mbuf.m_pullup m eth_hlen in
    let d = m.Mbuf.m_data and o = m.Mbuf.m_off in
    let ethertype = (Char.code (Bytes.get d (o + 12)) lsl 8) lor Char.code (Bytes.get d (o + 13)) in
    Mbuf.m_adj m eth_hlen;
    match List.assoc_opt ethertype ifp.if_protos with
    | Some input -> input m
    | None -> Mbuf.m_freem m (* unknown protocol: dropped, as in the donor *)
  end

(* This is the one receive entry for both the mbuf-native attachment and
   the COM glue, i.e. interrupt level: an allocation failure anywhere on
   the input path that nobody above converted must become a counted frame
   drop here, never an exception into the driver.  The chain is left to
   the GC — a pullup may already have consumed part of it. *)
let ether_input ifp m =
  try ether_input_frame ifp m
  with Memfault.Nomem -> ifp.if_idrops <- ifp.if_idrops + 1
