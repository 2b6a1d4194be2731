(** A simulated Ethernet controller.

    Hardware-level model of the cards the paper's Linux drivers drove:
    a receive ring of bounded depth (overflow drops frames, as real NICs
    do), MAC/broadcast filtering with an optional promiscuous mode, and an
    interrupt per received frame.  The driver components in
    [lib/linux_dev] program against this. *)

type t

type mac = string
(** 6 bytes. *)

val broadcast : mac

(** [create ~machine ~wire ~mac ~irq ()] attaches a card to the segment. *)
val create :
  machine:Machine.t -> wire:Wire.t -> mac:mac -> irq:int -> ?rx_ring:int -> unit -> t

val mac : t -> mac
val irq : t -> int

(** {2 Hardware receive-side scaling}

    Multi-queue RX, as on fxp/e1000-class successors: [set_rss] programs
    the on-card hash ([classify], charged no CPU cycles — it runs in the
    device) and one MSI-X vector per queue; an accepted frame lands in
    ring [classify frame mod n] and raises [vectors.(q)], so with per-line
    affinity each flow interrupts its home CPU directly.  Each queue has
    its own [rx_ring]-deep ring; overflow drops count in {!rx_dropped}.
    Counts [Cost.counters.rss_steered] per classified frame.  With RSS off
    (the default, and after [clear_rss]) the card is the single-queue
    device it always was, bit for bit. *)

val set_rss : t -> vectors:int array -> classify:(bytes -> int) -> unit
val clear_rss : t -> unit

(** Number of RX queues (1 when RSS is off). *)
val rx_queues : t -> int

(** {2 Transmit offload}

    Checksum and TCP segmentation offload, as on e1000-class cards: the
    driver marks a frame with an {!offload} request and the card does the
    work in the device, charging no CPU cycles beyond the per-byte DMA.
    The stack leaves in th_sum the pseudo-header sum over the addresses and
    protocol (in_pseudo, without the length); the card adds each wire
    frame's TCP length. *)

type offload =
  | Csum  (** write the frame's TCP checksum *)
  | Tso of int
      (** [Tso mss]: cut one Ethernet/IPv4/TCP super-frame into
          ⌈payload/mss⌉ wire frames.  Each gets the IP total length, IP
          id + i, a fresh IP header checksum, TCP seq + i·mss, FIN and PSH
          only on the last frame, and its own TCP checksum. *)

(** Why a malformed offload request was refused: not Ethernet/IPv4/TCP,
    an IP header with options, headers that do not all lie in the first
    DMA fragment, or [mss <= 0]. *)
type refusal = Not_tcp | Ip_options | Split_headers | Bad_mss

(** [transmit t ?offload frame] hands a fully-formed Ethernet frame to the
    card; DMA from driver memory is charged per byte at a fraction of
    memcpy cost.  Frames shorter than 60 bytes are padded, as the hardware
    does.  With [offload], the card checks the headers and refuses a
    malformed request (counted per card in {!offload_refused} and in
    [Cost.counters.offload_refused]; nothing is sent); otherwise it writes
    the checksums, into [frame] itself for a single frame, and cuts a
    [Tso] super-frame.  Counts [Cost.counters.csum_offloads] per wire
    frame, and [tso_bursts]/[tso_frames] per [Tso] request. *)
val transmit : t -> ?offload:offload -> bytes -> unit

(** [transmit_v t ?offload frags] hands the card an ordered iovec of
    [(backing, off, len)] fragments; the controller gathers them in place
    (busmaster scatter-gather DMA, charged per byte at DMA rate like
    {!transmit}) and puts the frame, or the frames an [offload] request
    cuts from it, on the wire.  Counts one [Cost.counters.sg_xmits] per
    wire frame.  Zero CPU copy for the caller. *)
val transmit_v : t -> ?offload:offload -> (bytes * int * int) list -> unit

(** {2 Receive checksum offload}

    [rx_csum_verified frame] is the card's verdict on a frame it received:
    [true] when the frame carries an option-less, unfragmented
    Ethernet/IPv4/TCP packet whose TCP checksum over the pseudo-header
    verifies.  A frame the card cannot check whole, or one that fails the
    sum, gets [false]: no verdict, and the stack sums it in software.  The
    check runs in the device and charges no CPU cycles. *)
val rx_csum_verified : bytes -> bool

(** [pop_rx t] takes the oldest received frame off the ring, if any.  Used
    by the driver's interrupt handler. *)
val pop_rx : t -> bytes option

(** [pop_rx_q t ~q] takes the oldest frame off RSS queue [q] (queue 0 is
    the legacy ring when RSS is off). *)
val pop_rx_q : t -> q:int -> bytes option

(** [pop_rx_burst t ~max] takes up to [max] pending frames off the ring,
    oldest first — the bounded burst a NAPI-style poll drains per
    interrupt (Cost.config.rx_batch). *)
val pop_rx_burst : t -> max:int -> bytes list

val rx_pending : t -> int
val set_promiscuous : t -> bool -> unit

(** Frames dropped to ring overflow. *)
val rx_dropped : t -> int

(** Counters for tests/benches: wire frames sent, and transmit requests
    (one DMA each; a [Tso] request is one request and many frames). *)
val tx_count : t -> int

val xmit_count : t -> int

(** Offload requests refused for one reason. *)
val offload_refused : t -> refusal -> int

val rx_count : t -> int
