(* Cells, phases and the event loop.

   A workload runs as one or more cells: each cell is a fresh testbed, set
   up (host-timed as set-up) and then driven through its measured phase
   (host-timed, with GC words counted).  The benchmark steps the world
   itself rather than calling Clientos.run, so it can count events and,
   on the traced run, put a root span around each one. *)

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt
let host_ns = Pb_trace.host_ns

(* Totals of one repetition of a workload. *)
type rep = {
  mutable setup_ns : int;
  mutable measure_ns : int;
  mutable minor_words : float;
  mutable events : int;  (* world events in measured phases *)
  mutable cells : (string * facts) list;  (* per cell, newest first *)
  mutable traces : (string * traced) list;  (* traced run, per cell, newest first *)
}

(* What every run keeps of one cell. *)
and facts = {
  counters : Cost.counters;
  mbuf_pool : int * int;  (* hits, misses *)
  skb_pool : int * int;
}

(* What the traced run keeps of one cell. *)
and traced = {
  aggs : (string * Pb_trace.agg) list;  (* per span name *)
  ledger : int array array array;  (* machine -> cpu -> layer -> busy ns *)
  machines : string array;
  host_self : int array;  (* layer -> host ns *)
}

let fresh_rep () =
  { setup_ns = 0; measure_ns = 0; minor_words = 0.0; events = 0; cells = []; traces = [] }

let rep = ref (fresh_rep ())

(* Where the traced run's spans go; None = keep them in memory only. *)
let chrome : (out_channel * bool ref) option ref = ref None

let snapshot_counters () = { Cost.counters with Cost.copies = Cost.counters.Cost.copies }

(* ---- the event loop ---- *)

let fuel = 100_000_000

let step world =
  if !Pb_trace.on then begin
    let tok = Pb_trace.step_begin world in
    let progressed = World.step world in
    Pb_trace.step_end tok;
    progressed
  end
  else World.step world

(* Step until [until] holds or nothing is left to run; returns the number
   of events run. *)
let run_until (tb : Clientos.testbed) ~until =
  let n = ref 0 in
  while (not (until ())) && step tb.Clientos.world do
    incr n;
    if !n > fuel then fail "event loop: out of fuel"
  done;
  !n

(* ---- cells and phases ---- *)

let hosts (tb : Clientos.testbed) = [ tb.Clientos.host_a; tb.Clientos.host_b ]

(* A fresh testbed.  Global state from the previous cell is reset first:
   warm buffer pools or a driver list from an earlier simulation would
   make a cell depend on what ran before it. *)
let host world wire ~name ~model ~mac ~ncpus =
  let machine = Machine.create ~name ~ncpus world in
  let kernel = Kernel.create machine in
  let nic = Nic.create ~machine ~wire ~mac ~irq:9 ~rx_ring:Pb_knobs.rx_ring () in
  Bus.clear machine;
  Bus.register_hw machine (Bus.Hw_nic { model; nic });
  { Clientos.machine; kernel; nic }

(* Clientos.make_testbed's two PCs, on the gigabit wire.  With [cpus] =
   (client, server) the two machines get those CPU counts instead of
   Cost.config.ncpus -- a client with more CPUs than the server keeps the
   server the bottleneck of a request workload -- and NICs with a
   modern receive ring (Pb_knobs.rx_ring). *)
let testbed ?cpus () =
  Clientos.reset_globals ();
  Fdev.clear_drivers ();
  (* Kwheel keeps every machine that ever armed a wheel timer, and with
     it that machine's whole world; Clientos.reset_globals does not clear
     it.  The previous cell's machines are dead, so drop them here. *)
  Kwheel.registry := [];
  let tb =
    match cpus with
    | None -> Clientos.make_testbed ~models:("3c905", "tulip") ~bandwidth_bps:Pb_knobs.wire_bps ()
    | Some (client, server) ->
        let world = World.create () in
        let wire = Wire.create ~bandwidth_bps:Pb_knobs.wire_bps world in
        let mac i = "\x02\x00\x00\x00\x00" ^ String.make 1 (Char.chr i) in
        { Clientos.world;
          wire;
          host_a = host world wire ~name:"pc-a" ~model:"3c905" ~mac:(mac 1) ~ncpus:client;
          host_b = host world wire ~name:"pc-b" ~model:"tulip" ~mac:(mac 2) ~ncpus:server }
  in
  if !Pb_trace.on then Pb_trace.start (List.map (fun h -> h.Clientos.machine) (hosts tb));
  tb

let setup f =
  let h0 = host_ns () in
  let v = f () in
  !rep.setup_ns <- !rep.setup_ns + (host_ns () - h0);
  v

(* The measured phase: steps the world until [until]; its events, host time and
   minor-heap words are added to the repetition. *)
let measure tb ~until =
  if !Pb_trace.on then Pb_trace.reset_aggs ();
  (* Start from a collected heap, so the phase pays for collecting its
     own garbage and not for what earlier cells left behind. *)
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let h0 = host_ns () in
  let n = run_until tb ~until in
  let h1 = host_ns () in

  let w1 = Gc.minor_words () in
  let r = !rep in
  r.measure_ns <- r.measure_ns + (h1 - h0);
  r.minor_words <- r.minor_words +. (w1 -. w0);
  r.events <- r.events + n;
  n

(* Close a cell: every thread exited cleanly, counters are snapshotted,
   and on the traced run the ledger is checked and the spans written. *)
let finish ~name (tb : Clientos.testbed) =
  List.iter
    (fun h ->
      match Thread.failures (Kernel.sched h.Clientos.kernel) with
      | [] -> ()
      | (thread, e) :: _ ->
          fail "%s: thread %s on %s raised %s" name thread
            (Machine.name h.Clientos.machine) (Printexc.to_string e))
    (hosts tb);
  let r = !rep in
  let pools ps = List.fold_left (fun (h, m) p -> h + Bpool.hits p, m + Bpool.misses p) (0, 0) ps in
  r.cells <-
    ( name,
      { counters = snapshot_counters ();
        mbuf_pool = pools [ Mbuf.small_pool; Mbuf.clust_pool ];
        skb_pool = pools (Array.to_list Skbuff.pools) } )
    :: r.cells;
  if !Pb_trace.on then begin
    let ledger = Pb_trace.check_ledger () in
    let st = Pb_trace.st in
    let t =
      { aggs = Hashtbl.fold (fun k a acc -> (k, { a with Pb_trace.calls = a.Pb_trace.calls }) :: acc) st.Pb_trace.aggs [];
        ledger;
        machines = Array.map Machine.name st.Pb_trace.machines;
        host_self = Array.copy st.Pb_trace.host_self }
    in
    r.traces <- (name, t) :: r.traces;
    match !chrome with
    | Some (oc, first) -> Pb_trace.write_chrome oc ~cell:name ~first
    | None -> ()
  end

(* ---- small helpers shared by the workloads ---- *)

let ip = Oskit.ip_of_string
let mask = ip "255.255.255.0"

let ok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Error.to_string e)

(* Nearest-rank percentile of an unsorted sample, in the sample's unit. *)
let percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0 else a.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

(* Per-CPU busy ns now, and the most any CPU has been busy since. *)
let busy_vec (m : Machine.t) = Array.init (Machine.ncpus m) (fun c -> Machine.cpu_busy_ns m ~cpu:c)

let busy_since (m : Machine.t) base =
  let best = ref 0 in
  Array.iteri (fun c b -> best := max !best (Machine.cpu_busy_ns m ~cpu:c - b)) base;
  !best

(* Deterministic payload bytes: position- and stream-dependent, so a
   byte delivered to the wrong place or the wrong stream is caught. *)
let pattern ~stream pos = Char.chr (((pos * 131) + (stream * 17) + (pos lsr 8)) land 0xff)
