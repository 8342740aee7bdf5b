"""The live read path's shortcuts must be invisible on the wire.

* The server renders each entry's ``get`` reply block once, when it is
  stored; after every mutating command the block must equal what
  ``format_values`` renders from the entry's current fields.
* Key validation is one precompiled character-class check; it must
  accept and reject exactly what the per-character predicate
  ``c <= " " or c == "\\x7f"`` did, for every code point.
* VALUE lines parse with one match at their offset; any framing of a
  response stream must round-trip, and malformed lines must raise the
  exception classes the two-split parser raised.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol import codec
from repro.protocol.codec import (
    MAX_KEY_LEN,
    FrameBuffer,
    IncompleteResponse,
    format_values,
    parse_response_at,
)
from repro.protocol.memclient import MemcachedConnection
from repro.protocol.memserver import MemcachedServer
from repro.protocol.transport import LoopbackTransport


class FakeClock:
    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now


def _old_key_ok(key: str) -> bool:
    """The per-character key predicate the precompiled check replaced."""
    if not key or len(key) > MAX_KEY_LEN:
        return False
    return not any(c <= " " or c == "\x7f" for c in key)


def _accepts(check, arg) -> bool:
    try:
        check(arg)
    except ProtocolError:
        return False
    return True


# ---------------------------------------------------------------------------
# (a) pre-rendered get blocks
# ---------------------------------------------------------------------------


@pytest.fixture()
def stack():
    clock = FakeClock()
    server = MemcachedServer(clock=clock)
    return clock, server, MemcachedConnection(LoopbackTransport(server))


def _assert_blocks_current(server: MemcachedServer) -> None:
    """Every entry's block, and the wire ``get`` reply of every key, equal
    ``format_values`` over the entry's current flags and data."""
    keys = list(server._items)
    for key in keys:
        entry = server._items[key]
        assert entry.block + b"END\r\n" == format_values(
            [(key, entry.flags, entry.data, None)], with_cas=False
        )
    if keys:
        expected = format_values(
            [(k, server._items[k].flags, server._items[k].data, None) for k in keys],
            with_cas=False,
        )
        assert server.handle(f"get {' '.join(keys)}\r\n".encode()) == expected


class TestPreRenderedBlocks:
    def test_every_mutating_command(self, stack):
        clock, server, conn = stack
        steps = [
            lambda: conn.set("a", b"alpha", flags=3),
            lambda: conn.set("n", b"41"),
            lambda: conn.add("b", b"beta", flags=9),
            lambda: conn.add("a", b"ignored"),
            lambda: conn.replace("a", b"ALPHA", flags=4),
            lambda: conn.replace("missing", b"x"),
            lambda: conn.append("a", b"-tail"),
            lambda: conn.prepend("b", b"head-"),
            lambda: conn.incr("n", 1),
            lambda: conn.incr("n", 958),
            lambda: conn.decr("n", 7),
            lambda: conn.decr("n", 10**6),
            lambda: conn.cas("b", b"swapped", conn.get_multi(["b"], with_cas=True)["b"][1]),
            lambda: conn.cas("b", b"stale", 1),
            lambda: conn.touch("a", 30),
            lambda: conn.set("a", b"", flags=1),
            lambda: conn.delete("n"),
        ]
        for step in steps:
            step()
            _assert_blocks_current(server)
        # cas stores the flags it carries (0 here), like set
        assert server.handle(b"get b\r\n") == b"VALUE b 0 7\r\nswapped\r\nEND\r\n"

    def test_ttl_expiry_drops_the_block(self, stack):
        clock, server, conn = stack
        conn.set("short", b"gone soon", exptime=10)
        conn.set("long", b"stays", flags=2)
        conn.append("short", b"!")  # keeps the TTL
        _assert_blocks_current(server)
        clock.now += 11
        assert server.handle(b"get short long\r\n") == format_values(
            [("long", 2, b"stays", None)], with_cas=False
        )
        _assert_blocks_current(server)

    def test_counters_once_per_transaction(self, stack):
        _, server, conn = stack
        conn.set("a", b"1")
        out = server.handle(b"get a zz a\r\n")
        assert out == format_values(
            [("a", 0, b"1", None), ("a", 0, b"1", None)], with_cas=False
        )
        assert server.stats["cmd_get"] == 1
        assert server.stats["get_hits"] == 2
        assert server.stats["get_misses"] == 1

    def test_gets_keeps_cas_ids(self, stack):
        _, server, conn = stack
        conn.set("a", b"v1")
        conn.set("a", b"v2")
        cas = server._items["a"].cas
        assert server.handle(b"gets a\r\n") == format_values(
            [("a", 0, b"v2", cas)], with_cas=True
        )

    def test_byte_accounting_stays_on_payload_length(self):
        server = MemcachedServer(capacity_bytes=10)
        conn = MemcachedConnection(LoopbackTransport(server))
        conn.set("a", b"12345")
        conn.set("b", b"12345")
        assert server.bytes_used == 10 and server.stats["evictions"] == 0
        conn.set("c", b"1")
        assert "a" not in server and server.stats["evictions"] == 1


# ---------------------------------------------------------------------------
# (b) key validation
# ---------------------------------------------------------------------------


class TestKeyCheck:
    def test_every_single_code_point(self):
        mismatched = [
            cp
            for cp in range(0x110000)
            if not (
                _old_key_ok(chr(cp))
                == _accepts(codec._validate_key, chr(cp))
                == _accepts(codec._validate_keys, (chr(cp),))
            )
        ]
        assert mismatched == []

    @pytest.mark.parametrize("length", [0, 1, MAX_KEY_LEN, MAX_KEY_LEN + 1])
    def test_lengths(self, length):
        for key in ("k" * length, "é" * length):
            assert _old_key_ok(key) == (length in (1, MAX_KEY_LEN))
            assert _accepts(codec._validate_key, key) == _old_key_ok(key)
            assert _accepts(codec._validate_keys, (key,)) == _old_key_ok(key)
            assert _accepts(codec._validate_keys, ("a", key, "b")) == _old_key_ok(key)

    @given(st.lists(st.text(max_size=6), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_key_lists(self, keys):
        ok = all(_old_key_ok(k) for k in keys)
        assert _accepts(codec._validate_keys, keys) == ok
        if ok:
            assert codec._validate_keys(keys) == " ".join(keys)

    def test_errors_name_the_offending_key(self):
        with pytest.raises(ProtocolError, match="invalid key length: 0"):
            codec._validate_keys(("a", ""))
        with pytest.raises(ProtocolError, match="control characters or spaces: 'b c'"):
            codec._validate_keys(("a", "b c"))
        with pytest.raises(ProtocolError, match="control characters or spaces"):
            codec.parse_command_stream(b"get ok bad\x01key\r\n")


# ---------------------------------------------------------------------------
# (c) one-pass VALUE parsing
# ---------------------------------------------------------------------------

valid_keys = st.text(
    alphabet=st.characters(
        min_codepoint=0x21,
        blacklist_characters="\x7f",
        blacklist_categories=("Cs",),
    ),
    min_size=1,
    max_size=40,
)
value_items = st.lists(
    st.tuples(
        valid_keys,
        st.integers(0, 2**32 - 1),
        st.binary(max_size=40),
        st.integers(0, 2**63),
    ),
    max_size=5,
    unique_by=lambda item: item[0],
)


@given(st.lists(st.tuples(value_items, st.booleans()), min_size=1, max_size=4), st.data())
@settings(max_examples=200, deadline=None)
def test_values_roundtrip_at_any_split(responses, data):
    wire = b"".join(format_values(items, with_cas) for items, with_cas in responses)
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, len(wire) - 1)), max_size=8)))
    frames = FrameBuffer()
    got = []
    for lo, hi in zip([0, *cuts], [*cuts, len(wire)]):
        frames.feed(wire[lo:hi])
        while (resp := frames.next_response()) is not None:
            got.append(resp)
    assert len(frames) == 0
    assert len(got) == len(responses)
    for resp, (items, with_cas) in zip(got, responses):
        parsed = {k: (f, bytes(p), c) for k, (f, p, c) in resp.values.items()}
        sent = {k: (f, p, c if with_cas else None) for k, f, p, c in items}
        assert resp.status == "END" and parsed == sent


# Each line raised this class from the parser that decoded and split
# every VALUE line twice.
MALFORMED = [
    (b"VALUE onlykey\r\n", ProtocolError),
    (b"VALUE k 0\r\n", ProtocolError),
    (b"VALUE\r\n", ProtocolError),
    (b"VALUE k 0 3 7 8\r\nabc\r\nEND\r\n", ProtocolError),
    (b"VALUE k 0 3\r\nabcdEND\r\n", ProtocolError),
    (b"VALUE k 0 3\r\nabc\r\r\nEND\r\n", ProtocolError),
    (b"VALUE k 0 -1\r\n\r\nEND\r\n", ProtocolError),
    (b"VALUE k 0 3\r\nab", IncompleteResponse),
    (b"VALUE k 0 3\r\nabc\r", IncompleteResponse),
    (b"VALUE k 0 3", IncompleteResponse),
    (b"VALUE k 0 3\r\nabc\r\nEN", IncompleteResponse),
    (b"VALUE k 0 3\r\nabc\r\n", IncompleteResponse),
]


@pytest.mark.parametrize(("wire", "exc"), MALFORMED)
def test_malformed_value_lines_raise_as_before(wire, exc):
    with pytest.raises(exc) as info:
        parse_response_at(wire)
    if exc is ProtocolError:
        assert not isinstance(info.value, IncompleteResponse)


@pytest.mark.parametrize(
    "wire", [b"VALUE k x 3\r\nabc\r\nEND\r\n", b"VALUE k 0 3 cas\r\nabc\r\nEND\r\n"]
)
def test_non_numeric_fields_are_protocol_errors(wire):
    """These used to escape ``int()`` as a bare ValueError, which the
    clients' failover (it catches ProtocolError) did not handle."""
    with pytest.raises(ProtocolError):
        parse_response_at(wire)


def test_keys_with_unicode_spaces_roundtrip():
    """A key may hold non-ASCII whitespace (only control characters,
    space and DEL are forbidden); the VALUE line splits on the ASCII
    spaces the server writes, not on every Unicode space."""
    items = [("a b", 0, b"x", None), ("c d", 5, b"yz", None)]
    resp, end = parse_response_at(format_values(items, with_cas=False))
    assert resp.values == {"a b": (0, b"x", None), "c d": (5, b"yz", None)}
