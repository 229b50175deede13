"""Timing parameters for the simulated machine.

The defaults are calibrated so the *simulated* foMPI microbenchmarks land
on the paper's measured performance functions (Section 3):

    P_put  = 0.16 ns/B + 1.0 us        (inter-node, incl. remote completion)
    P_get  = 0.17 ns/B + 1.9 us
    P_CAS  = 2.4 us,  P_acc,sum = 28 ns/elem + 2.4 us
    injection of an 8-B message: 416 ns inter-node, 80 ns intra-node

Derivation of the inter-node put path (see tests/machine/test_calibration):

    cpu(put fast path, 173 instr @ 2.3 GHz)   ~  75 ns
  + NIC injection                                416 ns
  + wire one-way (base + hops)                 ~ 250 ns
  + completion ack one-way                     ~ 250 ns
  ------------------------------------------------------
  put + flush                                  ~ 1.0 us
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GeminiParams", "XpmemParams"]


@dataclass(frozen=True)
class GeminiParams:
    """Gemini-like network timing (all times ns, bandwidth in ns/byte).

    Attributes
    ----------
    o_inject:
        NIC injection occupancy per message (the paper's 416 ns).
    o_eject:
        Target NIC processing per incoming packet (endpoint incast limit).
    wire_base:
        Distance-independent one-way wire latency (serdes + router exit).
    wire_per_hop:
        Additional one-way latency per torus hop.
    gap_per_byte:
        Inverse bandwidth of the injection path / wire (0.16 ns/B = 6.25 GB/s).
    get_target_overhead:
        Extra target-side time for a get (NIC-initiated local DMA read);
        makes P_get's constant ~0.9 us larger than P_put's, as measured.
    amo_service:
        Pipeline latency of the NIC AMO engine (applied once per operation).
    amo_gap:
        AMO engine occupancy per operation (streaming rate, 28 ns/elem).
    max_chunk:
        Largest single put/get the hardware accepts; DMAPP transfers are
        chunked by the caller (the paper: 1/4/8/16-byte granularity, large
        transfers split by the NIC -- we only model the large-transfer cap).
    noise_ns:
        Optional deterministic pseudo-noise amplitude on wire latency,
        mimicking the system noise the paper observed beyond 1000 ranks.
    """

    # Per-message CPU cost of handing a descriptor to the NIC.  340 ns
    # here + the 173-instruction foMPI fast path (~75 ns) reproduces the
    # paper's measured 416 ns per-message injection cost end to end --
    # this bounds the *per-rank* message rate (Figure 5b).
    o_inject: float = 340.0
    # Aggregate NIC packet-processing gap: many ranks share one NIC, which
    # sustains ~16 M small packets/s in total (hot-spot limit for the
    # hashtable study); forward packets also pay a fixed NIC pipeline
    # latency.
    nic_packet_gap: float = 60.0
    nic_latency: float = 260.0
    # Gemini exposes two injection paths: FMA for small/control transfers
    # and the BTE for bulk.  Modeling them separately prevents unrealistic
    # head-of-line blocking of tiny requests/AMOs behind bulk transfers.
    fma_threshold: int = 1024
    o_eject: float = 50.0
    wire_base: float = 310.0
    wire_per_hop: float = 16.0
    gap_per_byte: float = 0.16
    get_gap_per_byte: float = 0.17
    get_target_overhead: float = 800.0
    amo_service: float = 1250.0
    amo_gap: float = 28.0
    max_chunk: int = 1 << 20
    fifo_depth: int = 16  # injection FIFO depth in queued descriptors
    noise_ns: float = 0.0

    def wire_latency(self, hops: int) -> float:
        return self.wire_base + self.wire_per_hop * hops

    def with_noise(self, amplitude_ns: float) -> "GeminiParams":
        return replace(self, noise_ns=amplitude_ns)


@dataclass(frozen=True)
class XpmemParams:
    """Intra-node (XPMEM / shared memory) timing.

    Calibrated to: ~80 ns per small store (~190 instructions; Figure 5c's
    12.5 M messages/s), ~0.35 us small *load* latency (reads pay the
    cache-miss chain to the remote socket; stores are write-behind), and
    ~6.5 GB/s SSE copy bandwidth (256 KiB in ~40 us, Figure 4c).
    """

    store_setup: float = 12.0    # per-store overhead beyond the fast path
    latency: float = 270.0       # load latency (cache-miss chain)
    copy_per_byte: float = 0.154
    amo_latency: float = 45.0
