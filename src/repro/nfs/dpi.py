"""Deep packet inspection with a real Aho-Corasick automaton.

Table 1 row: an **automaton**, per-flow scope, read-write on **every
packet** — the one NF in the paper's survey that must update flow state
per packet, and therefore the NF class the paper flags as a poor fit
for spraying (§7: cross-packet pattern matching would require cores to
share their state machines).

Behaviour by steering mode:

- under **RSS**, every packet of a flow is on the flow's (single) core:
  the automaton state lives in the per-core scratch area and advances
  locally and cheaply;
- under **spraying** modes, the per-flow automaton state must be shared
  across cores: each packet pays a locked read-modify-write of the
  shared state (priced through the coherence model). The ablation bench
  uses this to quantify the paper's claim.

Pattern matching is real: the automaton is compiled once into a dense
transition table (one row of 256 next states per state) and scans
actual payload bytes when present; synthetic packets without payloads
charge the per-byte scan cost without advancing matches.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.nf import NetworkFunction, NfContext
from repro.net.five_tuple import FiveTuple
from repro.net.packet import Packet

#: Modelled DFA cost per scanned payload byte.
CYCLES_PER_SCANNED_BYTE = 2.0


def _signatures(patterns: Iterable[bytes]) -> List[bytes]:
    """Validate a signature set and copy it to a list of ``bytes``.

    A lone byte string is rejected rather than iterated: iterating
    ``b"attack"`` yields ints, and ``bytes(97)`` is 97 zero bytes, so
    it would silently build six all-zero patterns instead of the one
    intended signature.
    """
    if isinstance(patterns, (bytes, bytearray, str)):
        raise TypeError(
            f"patterns must be an iterable of byte strings, got a single "
            f"{type(patterns).__name__}: {patterns!r}"
        )
    signatures = []
    for pattern in patterns:
        if not isinstance(pattern, (bytes, bytearray, memoryview)):
            raise TypeError(
                f"every pattern must be bytes-like, got "
                f"{type(pattern).__name__}: {pattern!r}"
            )
        if len(pattern) == 0:
            raise ValueError("empty patterns are not allowed")
        signatures.append(bytes(pattern))
    return signatures


class AhoCorasick:
    """A classic Aho-Corasick multi-pattern matcher, compiled to a DFA.

    States are integers; 0 is the root. The constructor builds the goto
    trie and its failure links, then folds the failure links into a
    dense table: ``_delta[state][byte]`` is the next state for each of
    the 256 byte values, so ``scan`` does one list index per byte and
    never walks a failure link. ``scan`` takes and returns the state,
    so matching can be suspended and resumed across packet boundaries —
    the cross-packet property DPI needs.
    """

    def __init__(self, patterns: Iterable[bytes]):
        self.patterns: List[bytes] = _signatures(patterns)
        goto: List[Dict[int, int]] = [{}]
        outputs: List[List[int]] = [[]]
        for index, pattern in enumerate(self.patterns):
            state = 0
            for byte in pattern:
                nxt = goto[state].get(byte)
                if nxt is None:
                    nxt = len(goto)
                    goto.append({})
                    outputs.append([])
                    goto[state][byte] = nxt
                state = nxt
            outputs[state].append(index)

        # Breadth-first, so a state's failure target (always shallower)
        # has its full row before the state copies it.
        root = [0] * 256
        for byte, child in goto[0].items():
            root[byte] = child
        delta: List[List[int]] = [root] * len(goto)
        fail = [0] * len(goto)
        queue = deque(goto[0].values())
        while queue:
            state = queue.popleft()
            fallback = delta[fail[state]]
            row = fallback[:]
            for byte, child in goto[state].items():
                fail[child] = fallback[byte]
                outputs[child] = outputs[child] + outputs[fail[child]]
                row[byte] = child
                queue.append(child)
            delta[state] = row
        self._delta = delta
        #: Pattern ids completed on entering each state; empty unless
        #: the state accepts.
        self._outputs: List[Tuple[int, ...]] = [tuple(found) for found in outputs]

    @property
    def num_states(self) -> int:
        return len(self._delta)

    def scan(self, state: int, data: bytes) -> Tuple[int, List[Tuple[int, int]]]:
        """Scan ``data`` from ``state``; return (end_state, matches).

        Matches are ``(offset_of_last_byte, pattern_index)`` pairs.
        """
        delta = self._delta
        outputs = self._outputs
        matches: List[Tuple[int, int]] = []
        for offset, byte in enumerate(data):
            state = delta[state][byte]
            found = outputs[state]
            if found:
                for pattern_index in found:
                    matches.append((offset, pattern_index))
        return state, matches


# The declaration keeps the paper's logical row (automaton: per-flow,
# RW per packet); the implementation *materializes* that state as
# shared global structures under spraying — which is exactly the
# incompatibility §7 describes, so the divergence is the point.
class DpiNf(NetworkFunction):  # repro-lint: disable=SPR007
    """Signature-matching DPI over TCP payload streams."""

    name = "dpi"

    def __init__(self, patterns: Iterable[bytes]):
        self.automaton = AhoCorasick(patterns)
        self.matches: List[Tuple[FiveTuple, int]] = []
        #: Shared per-flow automaton states, used under spraying modes.
        self._shared_states: Dict[FiveTuple, int] = {}

    def _local_states(self, ctx: NfContext) -> Optional[Dict[FiveTuple, int]]:
        """This core's automaton states when every packet of a flow
        stays on one core (RSS); None when the states must be shared."""
        if ctx.engine.policy.name == "rss":
            return ctx.local.setdefault("dpi_states", {})
        return None

    def _scan_packet(
        self,
        packet: Packet,
        ctx: NfContext,
        local_states: Optional[Dict[FiveTuple, int]],
    ) -> None:
        flow = packet.five_tuple
        if local_states is not None:
            state = self._scan_payload(packet, local_states.get(flow, 0), ctx)
            local_states[flow] = state
            # Local automaton-state update: cheap.
            ctx.consume_cycles(ctx.engine.costs.flow_lookup_local)
        else:
            # Sprayed: the state machine is shared across cores — a
            # locked read-modify-write per packet (the paper's warning).
            ctx.write_global(("dpi_state", flow))
            state = self._shared_states.get(flow, 0)
            state = self._scan_payload(packet, state, ctx)
            self._shared_states[flow] = state

    def _scan_payload(self, packet: Packet, state: int, ctx: NfContext) -> int:
        ctx.consume_cycles(CYCLES_PER_SCANNED_BYTE * packet.payload_len)
        if packet.payload:
            state, found = self.automaton.scan(state, packet.payload)
            for _offset, pattern_index in found:
                self.matches.append((packet.five_tuple, pattern_index))
        return state

    def connection_packets(self, packets: List[Packet], ctx: NfContext) -> None:
        local_states = self._local_states(ctx)
        for packet in packets:
            flow = packet.five_tuple
            if packet.flags & 0x02 and not packet.flags & 0x10:  # first SYN
                if ctx.get_local_flow(flow) is None:
                    ctx.insert_local_flow(flow, {"scanned": 0})
                    ctx.insert_local_flow(flow.reversed(), {"scanned": 0})
            self._scan_packet(packet, ctx, local_states)

    def regular_packets(self, packets: List[Packet], ctx: NfContext) -> None:
        local_states = self._local_states(ctx)
        for packet in packets:
            self._scan_packet(packet, ctx, local_states)
