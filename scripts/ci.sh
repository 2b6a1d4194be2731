#!/bin/sh
# Tier-1 gate: full build, test suites, a few small smoke runs, and the
# nine committed BENCH_*.json regenerated bit-identically.
#
# Small runs (OSKIT_BENCH_BLOCKS=64; each fails loudly on regression):
#   alloc         the allocator bench runs and prints its speedup table.
#   chaos         ttcp through netem at 0-5% loss, all three configs, plus
#                 the FreeBSD and OSKit senders with sg on (segmentation
#                 and checksum offload: the card cuts each burst), every
#                 cell byte-exact.
#   sgsmoke       sg send >= default send, zero flatten copies on the sg
#                 path, byte-exact with sg on under loss.
#   rttsmoke      flags-on ttcp byte-exact under 0-1% loss; header
#                 prediction strictly lowers mean RTT with zero fallbacks.
#   longfatsmoke  8 MB at 50 ms: scaled windows >= 5x the seed, autotune
#                 >= 90% of manual BDP; the persist probe fires in a
#                 forced zero-window run.
#   eventsmoke    a 64-client reactor httpd with timer_wheel on stays
#                 byte-exact.
#   filesmoke     64 clients: keep-alive beats close-per-request, warm
#                 sendfile copies zero body bytes, Linux counts its copy
#                 fallback, both shapes byte-exact.
#
# Full sections (each writes its BENCH_*.json and asserts its gates on
# the rows it just wrote; the former *smoke runs that repeated a row are
# now these gates):
#   table1    the paper's Table 1 and the sg column; the OSKit sg send
#             makes strictly fewer glue crossings per 1000 packets than
#             the default send (a tcp_output train crosses once); the
#             sender's card sends more than one wire frame per driver
#             transmit on the FreeBSD and OSKit sg rows (it cuts each
#             offloaded burst) and exactly one on the Linux row.
#   table2    the paper's Table 2.
#   rtt       the 128-client fast-path http run is byte-exact and batches
#             more than one frame per poll (was rttsmoke).
#   http      every row byte-exact with no protocol errors; reactor >= 4x
#             threaded concurrency at 256 clients; reactor req/s >=
#             threaded on both 64-client rows (was httpsmoke).
#   smp       every row byte-exact, no netisr drop, no spin contention;
#             4 CPUs >= 3x at 1024 and 2048 clients; at 256 clients 4
#             CPUs beat 1 and RSS steered frames (was smpsmoke).
#   longfat   every cell byte-exact; at 50 ms / 0% scaled windows >= 5x
#             and autotune >= 90% of manual; the 10 ms / 1% autotune rows
#             are byte-exact with retransmissions (was longfatsmoke).
#   overload  the defended 40-SYN flood rows serve all 4 clients at
#             >= 70% of the defended clean row's goodput with every flood
#             SYN in the syncache; the 1% soak rows stay byte-exact with
#             failures injected; the guard-on Slowloris row serves all
#             legit clients with deadline cuts (was overloadsmoke).
#   event     the idle-10000 kq row makes as many kq visits as the
#             idle-100 row and the closed-form scan strawman,
#             (idle + hot) x rounds, is >= 10x them; every wheel row
#             keeps the timing contract; the idle-10000 wheel row works
#             under 1/100 of the scan (was eventsmoke).
#   file      every row byte-exact; pipelined ka+sendfile >= 3x
#             close-per-request at 10k requests; warm sendfile rows copy
#             no body bytes; rows with bodies <= 16 KB make no more
#             buffer-cache lookups per response than the directory's
#             blocks plus the body's; at 10k requests the pipelined
#             ka+sendfile+sg row makes strictly fewer server driver
#             transmits per response (xmits_per_resp) than the serial
#             one, since a pipeline's responses leave in one send.
# perfbench content (one traced second at seed 1): the end-to-end content
#   workload byte-checks every response, checks that repetitions agree
#   and that the traced run's virtual numbers equal the untraced run's,
#   and exits non-zero otherwise.  It guards the direct-mapped RAM disk:
#   a wrong adopted page shows as a wrong byte, and an interposer that
#   hid the blkmap face would make the traced run differ.
# Every number in the nine files is virtual time and the runs leave the
# SMP and event-core knobs at their defaults, so a change that only makes
# the simulator cheaper on the host must leave all nine untouched.
# bench/main.exe exits 2 on an unknown section or a bad
# OSKIT_BENCH_BLOCKS, so a misspelled name fails this script instead of
# testing nothing.
set -eux

# pcb_hash and kq are deleted knobs: their off paths (linear PCB scans,
# the registration-order reactor scan) are gone, and the two fields stay
# in Cost.config only so perfbench/pb_knobs.ml keeps compiling.  No code
# outside lib/machine/cost.ml{,i} may read or write them.
if grep -rnE --include='*.ml' --include='*.mli' \
    'Cost\.config\.(pcb_hash|kq)\b|\.Cost\.(pcb_hash|kq)\b' lib bench test \
    | grep -vE '^lib/machine/cost\.mli?:'; then
  echo "ci.sh: a deleted knob (pcb_hash or kq) is referenced again, above" >&2
  exit 1
fi

dune build
dune runtest
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- alloc
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- chaos
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- sgsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- rttsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- longfatsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- eventsmoke
OSKIT_BENCH_BLOCKS=64 dune exec bench/main.exe -- filesmoke
dune exec bench/main.exe -- table1
dune exec bench/main.exe -- table2
dune exec bench/main.exe -- rtt
dune exec bench/main.exe -- http smp longfat overload event file
sh perfbench/run.sh --workload content --seed 1 --seconds 1 --trace 1 >/dev/null
git diff --exit-code BENCH_table1.json BENCH_table2.json BENCH_rtt.json \
  BENCH_http.json BENCH_smp.json BENCH_longfat.json BENCH_overload.json \
  BENCH_event.json BENCH_file.json
