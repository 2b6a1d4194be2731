(* Spans and the outside-in ledger of the traced run.

   Spans are recorded only at boundaries the benchmark owns: a root
   [machine.event] around every World.step it runs, one span around each
   interposed COM call (Pb_interpose), and one [loadgen.req] span per
   request of the load generator.

   Virtual time is attributed incrementally.  At every span boundary the
   executing CPU's Machine.cpu_busy_ns is read and the busy nanoseconds
   charged since the previous reading go to the innermost open busy span
   on that CPU -- or to [machine] inside a root step with no open span, or
   to [unattributed] outside any step (set-up code run directly through
   Machine.run_in).  The per-layer self times of a CPU therefore add up to
   its cpu_busy_ns, which [check_ledger] asserts to the nanosecond.  Host
   time (a monotonic clock) is attributed the same way over one global
   stack, because the simulator runs on one host thread.

   A call that can block (a socket call on a blocking socket) suspends its
   thread and lets others run inside its interval, so it gets a [Wait]
   span: its interval is recorded, but it owns no busy time.  Busy spans
   must nest; a busy span that is not the innermost open one when it
   closes means a call blocked that was assumed not to, and fails the run.

   Recording reads clocks and counters only: it charges nothing, so the
   traced run's virtual numbers must equal the untraced run's bit for
   bit (checked by the caller). *)

let on = ref false
let host_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = Busy | Wait

let layers = [| "machine"; "com"; "linux_dev"; "freebsd_net"; "netbsd_fs"; "fdev"; "unattributed" |]
let l_machine = 0
let l_com = 1
let l_linux_dev = 2
let l_sock = 3
let l_fs = 4
let l_blkio = 5
let l_unattributed = 6
let nlayers = Array.length layers

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 for a root *)
  sp_name : string;
  sp_kind : kind;
  sp_layer : int;
  sp_mach : int;  (* index into [machines]; -1 when no machine executes *)
  sp_cpu : int;
  sp_conn : int;  (* shared id of one request's spans; -1 if none *)
  mutable sp_vstart : int;
  mutable sp_vend : int;
  sp_hstart : int;
  mutable sp_hend : int;
  sp_busy0 : int;  (* executing CPU's busy ns at entry *)
  mutable sp_child_v : int;  (* busy ns inside child busy spans *)
  mutable sp_child_h : int;
}

(* Aggregate per span name: calls, items (frames, bytes...), inclusive and
   self virtual busy ns, inclusive and self host ns. *)
type agg = {
  mutable calls : int;  (* busy spans *)
  mutable waits : int;  (* wait spans *)
  mutable items : int;
  mutable incl_v : int;
  mutable self_v : int;
  mutable incl_h : int;
  mutable self_h : int;
}

let max_kept = 200_000

type state = {
  mutable machines : Machine.t array;
  mutable virt : int array array array;  (* machine -> cpu -> layer -> busy ns *)
  mutable last_busy : int array array;
  host_self : int array;  (* layer -> host ns *)
  mutable last_host : int;
  mutable stack : span list;  (* open busy spans, innermost first *)
  mutable root : span option;
  mutable next_id : int;
  mutable kept : span list;  (* newest first, at most [max_kept] *)
  mutable nkept : int;
  mutable dropped : int;
  aggs : (string, agg) Hashtbl.t;
}

let st =
  { machines = [||]; virt = [||]; last_busy = [||]; host_self = Array.make nlayers 0;
    last_host = 0; stack = []; root = None; next_id = 0; kept = []; nkept = 0;
    dropped = 0; aggs = Hashtbl.create 16 }

(* Start a fresh ledger over [machines], right after they are created and
   before anything has charged them. *)
let start machines =
  st.machines <- Array.of_list machines;
  st.virt <-
    Array.map (fun m -> Array.init (Machine.ncpus m) (fun _ -> Array.make nlayers 0)) st.machines;
  st.last_busy <- Array.map (fun m -> Array.make (Machine.ncpus m) 0) st.machines;
  Array.fill st.host_self 0 nlayers 0;
  st.last_host <- host_ns ();
  st.stack <- [];
  st.root <- None;
  st.next_id <- 0;
  st.kept <- [];
  st.nkept <- 0;
  st.dropped <- 0;
  Hashtbl.reset st.aggs

let index_of_machine m =
  let rec go i =
    if i >= Array.length st.machines then -1
    else if st.machines.(i) == m then i
    else go (i + 1)
  in
  go 0

(* The layer owning CPU (mi, cpu)'s busy time right now. *)
let owner mi cpu =
  let rec first = function
    | [] -> if st.root = None then l_unattributed else l_machine
    | sp :: rest -> if sp.sp_mach = mi && sp.sp_cpu = cpu then sp.sp_layer else first rest
  in
  first st.stack

let flush_cpu mi cpu =
  let b = Machine.cpu_busy_ns st.machines.(mi) ~cpu in
  let l = owner mi cpu in
  st.virt.(mi).(cpu).(l) <- st.virt.(mi).(cpu).(l) + b - st.last_busy.(mi).(cpu);
  st.last_busy.(mi).(cpu) <- b

let flush_all () =
  Array.iteri (fun mi m -> for c = 0 to Machine.ncpus m - 1 do flush_cpu mi c done) st.machines

let flush_host () =
  let h = host_ns () in
  let l =
    match st.stack with
    | sp :: _ -> sp.sp_layer
    | [] -> if st.root = None then l_unattributed else l_machine
  in
  st.host_self.(l) <- st.host_self.(l) + h - st.last_host;
  st.last_host <- h

let keep sp =
  if st.nkept < max_kept then begin
    st.kept <- sp :: st.kept;
    st.nkept <- st.nkept + 1
  end
  else st.dropped <- st.dropped + 1

let agg name =
  match Hashtbl.find_opt st.aggs name with
  | Some a -> a
  | None ->
      let a = { calls = 0; waits = 0; items = 0; incl_v = 0; self_v = 0; incl_h = 0; self_h = 0 } in
      Hashtbl.add st.aggs name a;
      a

let fresh_id () =
  let id = st.next_id in
  st.next_id <- id + 1;
  id

let parent_id () =
  match st.stack, st.root with
  | sp :: _, _ -> sp.sp_id
  | [], Some r -> r.sp_id
  | [], None -> -1

let mk ~name ~kind ~layer ~mach ~cpu ~conn ~vstart ~busy0 =
  { sp_id = fresh_id (); sp_parent = parent_id (); sp_name = name; sp_kind = kind;
    sp_layer = layer; sp_mach = mach; sp_cpu = cpu; sp_conn = conn; sp_vstart = vstart;
    sp_vend = vstart; sp_hstart = host_ns (); sp_hend = 0; sp_busy0 = busy0;
    sp_child_v = 0; sp_child_h = 0 }

(* ---- root spans: one per World.step ---- *)

let busy_snapshot () =
  Array.map (fun m -> Array.init (Machine.ncpus m) (fun c -> Machine.cpu_busy_ns m ~cpu:c)) st.machines

let step_begin world =
  flush_all ();
  flush_host ();
  let r =
    mk ~name:"machine.event" ~kind:Busy ~layer:l_machine ~mach:(-1) ~cpu:(-1) ~conn:(-1)
      ~vstart:(World.now world) ~busy0:0
  in
  st.root <- Some r;
  r, busy_snapshot ()

let step_end (r, before) =
  if st.stack <> [] then failwith "trace: a busy span is still open at the end of a step";
  flush_all ();
  flush_host ();
  st.root <- None;
  (* The root runs on the CPU that did the most work in it. *)
  let best = ref (-1, -1, 0) in
  Array.iteri
    (fun mi m ->
      for c = 0 to Machine.ncpus m - 1 do
        let d = Machine.cpu_busy_ns m ~cpu:c - before.(mi).(c) in
        let _, _, bd = !best in
        if d > bd then best := (mi, c, d)
      done)
    st.machines;
  let mi, c, d = !best in
  let r =
    { r with sp_mach = mi; sp_cpu = c;
      sp_vend = (if mi >= 0 then Machine.cpu_now st.machines.(mi) ~cpu:c else r.sp_vstart) }
  in
  if mi >= 0 then r.sp_vstart <- r.sp_vend - d;
  r.sp_hend <- host_ns ();
  let a = agg r.sp_name in
  a.calls <- a.calls + 1;
  a.incl_v <- a.incl_v + d;
  a.self_v <- a.self_v + d - r.sp_child_v;
  let dh = r.sp_hend - r.sp_hstart in
  a.incl_h <- a.incl_h + dh;
  a.self_h <- a.self_h + dh - r.sp_child_h;
  keep r

(* ---- interposed calls ---- *)

let executing () =
  match Machine.current () with
  | Some m -> (
      match index_of_machine m with
      | -1 -> None
      | mi -> Some (mi, Machine.cpu m, m))
  | None -> None

let enter ~name ~layer ~kind ?(conn = -1) () =
  let mi, cpu, vstart, busy0 =
    match executing () with
    | Some (mi, cpu, m) -> mi, cpu, Machine.now m, Machine.cpu_busy_ns m ~cpu
    | None -> -1, -1, 0, 0
  in
  if kind = Busy && mi >= 0 then flush_cpu mi cpu;
  if kind = Busy then flush_host ();
  let sp = mk ~name ~kind ~layer ~mach:mi ~cpu ~conn ~vstart ~busy0 in
  if kind = Busy then st.stack <- sp :: st.stack;
  sp

let leave ?(items = 1) sp =
  let a = agg sp.sp_name in
  (match sp.sp_kind with Busy -> a.calls <- a.calls + 1 | Wait -> a.waits <- a.waits + 1);
  a.items <- a.items + items;
  let now_v, busy =
    if sp.sp_mach >= 0 then
      let m = st.machines.(sp.sp_mach) in
      Machine.cpu_now m ~cpu:sp.sp_cpu, Machine.cpu_busy_ns m ~cpu:sp.sp_cpu
    else sp.sp_vstart, 0
  in
  sp.sp_vend <- now_v;
  (match sp.sp_kind with
  | Wait -> sp.sp_hend <- host_ns ()
  | Busy ->
      (match st.stack with
      | top :: rest when top == sp -> (
          if sp.sp_mach >= 0 then flush_cpu sp.sp_mach sp.sp_cpu;
          flush_host ();
          st.stack <- rest;
          sp.sp_hend <- st.last_host;
          let dv = busy - sp.sp_busy0 and dh = sp.sp_hend - sp.sp_hstart in
          a.incl_v <- a.incl_v + dv;
          a.self_v <- a.self_v + dv - sp.sp_child_v;
          a.incl_h <- a.incl_h + dh;
          a.self_h <- a.self_h + dh - sp.sp_child_h;
          match rest, st.root with
          | p :: _, _ | [], Some p ->
              p.sp_child_v <- p.sp_child_v + dv;
              p.sp_child_h <- p.sp_child_h + dh
          | [], None -> ())
      | _ -> failwith ("trace: busy span " ^ sp.sp_name ^ " blocked or interleaved")));
  keep sp

(* A finished wait span built after the fact (the load generator knows a
   request's due time only when it completes). *)
let record_wait ~name ~conn ~mach ~vstart ~vend ~hstart =
  let sp =
    { sp_id = fresh_id (); sp_parent = -1; sp_name = name; sp_kind = Wait; sp_layer = -1;
      sp_mach = mach; sp_cpu = -1; sp_conn = conn; sp_vstart = vstart; sp_vend = vend;
      sp_hstart = hstart; sp_hend = host_ns (); sp_busy0 = 0; sp_child_v = 0; sp_child_h = 0 }
  in
  let a = agg name in
  a.waits <- a.waits + 1;
  keep sp

(* The per-name aggregates cover the measured phase only. *)
let reset_aggs () = Hashtbl.reset st.aggs

(* ---- the ledger ---- *)

(* Close the books on every CPU and return, per machine and CPU, the busy
   ns by layer.  Raises if a CPU's layers do not sum to its busy ns. *)
let check_ledger () =
  flush_all ();
  flush_host ();
  Array.iteri
    (fun mi m ->
      for c = 0 to Machine.ncpus m - 1 do
        let sum = Array.fold_left ( + ) 0 st.virt.(mi).(c) in
        let busy = Machine.cpu_busy_ns m ~cpu:c in
        if sum <> busy then
          failwith
            (Printf.sprintf "ledger: %s cpu%d layers sum to %d ns, busy is %d ns"
               (Machine.name m) c sum busy)
      done)
    st.machines;
  st.virt

(* ---- Chrome trace-event JSON ---- *)

let write_chrome oc ~cell ~first =
  let us ns = float_of_int ns /. 1e3 in
  List.iter
    (fun sp ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%S,\"tid\":%d,\
         \"args\":{\"id\":%d,\"parent\":%d,\"conn\":%d,\"host_ns\":%d}}"
        sp.sp_name
        (match sp.sp_kind with Busy -> "busy" | Wait -> "wait")
        (us sp.sp_vstart)
        (us (max 0 (sp.sp_vend - sp.sp_vstart)))
        (if sp.sp_mach >= 0 then cell ^ "/" ^ Machine.name st.machines.(sp.sp_mach) else cell)
        (max 0 sp.sp_cpu) sp.sp_id sp.sp_parent sp.sp_conn (sp.sp_hend - sp.sp_hstart))
    (List.rev st.kept)
