"""Tests for Aho-Corasick and the DPI NF (the Sprayer-incompatible case)."""

import random

import pytest

from repro.core import MiddleboxConfig, MiddleboxEngine
from repro.net import ACK, SYN, FiveTuple, make_tcp_packet
from repro.nfs import AhoCorasick, DpiNf
from repro.nfs.factory import make_nf
from repro.sim import MILLISECOND, Simulator


def naive_find_all(patterns, text):
    """Reference oracle: every (end_offset, pattern_index)."""
    found = []
    for offset in range(len(text)):
        for index, pattern in enumerate(patterns):
            if text[offset: offset + len(pattern)] == pattern:
                found.append((offset + len(pattern) - 1, index))
    return sorted(found)


class TestAhoCorasick:
    def test_single_pattern(self):
        ac = AhoCorasick([b"abc"])
        _state, matches = ac.scan(0, b"xxabcxxabc")
        assert [m for m in matches] == [(4, 0), (9, 0)]

    def test_overlapping_patterns(self):
        ac = AhoCorasick([b"he", b"she", b"his", b"hers"])
        _state, matches = ac.scan(0, b"ushers")
        found = {(offset, index) for offset, index in matches}
        # "she" ends at 3, "he" ends at 3, "hers" ends at 5.
        assert (3, 1) in found and (3, 0) in found and (5, 3) in found

    def test_matches_against_naive_oracle(self):
        rng = random.Random(4)
        patterns = [bytes(rng.randrange(97, 100) for _ in range(rng.randrange(1, 4)))
                    for _ in range(5)]
        patterns = list(dict.fromkeys(patterns))  # dedupe
        text = bytes(rng.randrange(97, 100) for _ in range(300))
        ac = AhoCorasick(patterns)
        _state, matches = ac.scan(0, text)
        got = sorted((offset, index) for offset, index in matches)
        assert got == naive_find_all(patterns, text)

    def test_cross_packet_matching(self):
        """The property the paper says breaks under spraying: a match
        spanning two packets requires carrying state across them."""
        ac = AhoCorasick([b"attack"])
        state, matches = ac.scan(0, b"...att")
        assert matches == []
        state, matches = ac.scan(state, b"ack...")
        assert len(matches) == 1

    def test_cross_packet_match_lost_without_state(self):
        ac = AhoCorasick([b"attack"])
        _state, first = ac.scan(0, b"...att")
        # Restarting from the root (what independent cores would do):
        _state, second = ac.scan(0, b"ack...")
        assert first == [] and second == []

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AhoCorasick([b""])

    def test_num_states_reasonable(self):
        ac = AhoCorasick([b"ab", b"ac"])
        assert ac.num_states == 4  # root, a, ab, ac

    def test_bytes_like_patterns_accepted(self):
        ac = AhoCorasick([bytearray(b"att"), memoryview(b"ack")])
        assert ac.patterns == [b"att", b"ack"]
        _state, matches = ac.scan(0, b"attack")
        assert matches == [(2, 0), (5, 1)]


class TestSignatureValidation:
    """A malformed signature set must fail loudly, naming the value.

    Iterating a lone ``b"attack"`` yields ints, and ``bytes(97)`` is 97
    zero bytes: without the check the matcher would silently hunt for
    all-zero runs, which the generator's zero payloads contain.
    """

    @pytest.mark.parametrize(
        "patterns", [b"attack", bytearray(b"attack"), "attack"], ids=repr
    )
    def test_lone_string_rejected(self, patterns):
        with pytest.raises(TypeError, match="attack"):
            AhoCorasick(patterns)

    @pytest.mark.parametrize("bad", [97, "virus"], ids=repr)
    def test_non_bytes_element_rejected(self, bad):
        with pytest.raises(TypeError, match=repr(bad)):
            AhoCorasick([b"attack", bad])

    def test_factory_rejects_lone_string(self):
        with pytest.raises(TypeError, match="attack"):
            make_nf("dpi", patterns=b"attack")
        with pytest.raises(TypeError, match="attack"):
            make_nf("dpi_ooo", patterns=b"attack")


class TestDpiNf:
    def _drive(self, mode: str, payloads):
        sim = Simulator()
        nf = DpiNf(patterns=[b"attack", b"virus"])
        engine = MiddleboxEngine(sim, nf, MiddleboxConfig(mode=mode))
        engine.set_egress(lambda p: None)
        rng = random.Random(2)
        flow = FiveTuple(0x0A000001, 0x0A010001, 1234, 80, 6)
        engine.receive(
            make_tcp_packet(flow, flags=SYN, tcp_checksum=rng.getrandbits(16)), sim.now
        )
        sim.run(until=sim.now + MILLISECOND)
        for seq, payload in enumerate(payloads):
            packet = make_tcp_packet(
                flow, flags=ACK, seq=seq, tcp_checksum=rng.getrandbits(16)
            )
            packet.payload = payload
            packet.payload_len = len(payload)
            engine.receive(packet, sim.now)
            sim.run(until=sim.now + MILLISECOND)
        return nf, engine

    def test_detects_pattern_within_packet(self):
        nf, _ = self._drive("rss", [b"xx attack xx"])
        assert len(nf.matches) == 1

    def test_detects_cross_packet_pattern_under_rss(self):
        nf, _ = self._drive("rss", [b"...atta", b"ck..."])
        assert len(nf.matches) == 1

    def test_detects_cross_packet_pattern_under_sprayer_via_shared_state(self):
        # Packets are processed in arrival order here (one at a time),
        # so the shared state machine still finds the split pattern —
        # at the cost of a locked RMW per packet.
        nf, engine = self._drive("sprayer", [b"...atta", b"ck..."])
        assert len(nf.matches) == 1
        assert nf._shared_states  # shared state was needed

    def test_rss_keeps_automaton_state_core_local(self):
        nf, engine = self._drive("rss", [b"hello", b"world"])
        assert not nf._shared_states
        locals_with_state = [
            ctx for ctx in engine.contexts if ctx.local.get("dpi_states")
        ]
        assert len(locals_with_state) == 1

    def test_clean_traffic_matches_nothing(self):
        nf, _ = self._drive("rss", [b"just some innocent text"] * 3)
        assert nf.matches == []
