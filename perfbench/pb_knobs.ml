(* Every knob a workload sets, in one place.  Each cell of a workload
   starts from Cost.reset_config () and applies exactly these, so a later
   change to the kit's defaults or profiles cannot change what a workload
   measures without showing up here.  perfbench/README.md records the same
   sets per workload. *)

(* The gigabit wire of every workload: at 100 Mbit/s the link, not the
   CPU, sets the paper configurations' rates. *)
let wire_bps = 1_000_000_000

(* Receive-ring depth of the request workloads' NICs.  The paper-era
   card's 32 descriptors overflow at a gigabit while a 200 MHz CPU is busy
   transmitting; a modern card has hundreds. *)
let rx_ring = 256

(* Paper defaults on one CPU: the calibrated 1997 configuration. *)
let paper () = Cost.reset_config ()

(* The "modern" set: ROADMAP item 2's list, with rx_batch at 8 as the
   fast-path experiments use it.  pcb_hash and kq are on as well, because
   item 2 makes the hashed demux and the kqueue reactor the only paths. *)
let modern ~ncpus =
  Cost.reset_config ();
  let c = Cost.config in
  c.Cost.ncpus <- ncpus;
  c.Cost.sg_tx <- true;
  c.Cost.tcp_fastpath <- true;
  c.Cost.pcb_hash <- true;
  c.Cost.rx_batch <- 8;
  c.Cost.tcp_wscale <- true;
  c.Cost.tcp_autotune <- true;
  c.Cost.syn_defense <- true;
  c.Cost.timer_wheel <- true;
  c.Cost.kq <- true;
  c.Cost.http_keepalive <- true;
  c.Cost.sendfile <- true

(* The web server's provisioning: a listen backlog and netisr queues sized
   to the offered load, so overload shows as queueing and latency, not as
   a drop-and-retransmit tail. *)
let web_backlog = 4096
let web_netisr_qmax = 4096

let web () =
  modern ~ncpus:8;
  Cost.config.Cost.netisr_qmax <- web_netisr_qmax

let content () = modern ~ncpus:1

(* Fixed once, from the commit that introduced the benchmark: the web
   workload's p99 latency limit for capacity_rps, and the fixed offered
   rate at which it reports p50_us and p99_us (about 70% of capacity). *)
let web_latency_limit_ns = 5_000_000
let web_fixed_rate = 9_000.0
