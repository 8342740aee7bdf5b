"""Server-side command framing: any TCP read split gives the same replies.

``AsyncMemcachedServer`` frames each connection's commands with a
:class:`repro.protocol.codec.FrameBuffer`: received chunks are joined
only once the buffered command can complete.  However a pipelined
command stream is cut into reads — inside a command line, inside a data
block, mid-CRLF — the replies must be byte-identical to those for the
stream delivered in one read.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aio.server import AsyncMemcachedServer
from repro.errors import ProtocolError
from repro.protocol.codec import MAX_ITEM_SIZE, Command, FrameBuffer, encode_command
from repro.protocol.memserver import MemcachedServer

KEYS = ["a", "b", "c", "key:é"]
keys = st.sampled_from(KEYS)
payloads = st.binary(max_size=24) | st.just(b"END\r\nVALUE x 0 1\r\n")


def _storage(name: str):
    return st.builds(
        lambda k, v, f: Command(name, keys=(k,), data=v, flags=f),
        keys,
        payloads,
        st.integers(0, 9),
    )


commands = st.one_of(
    _storage("set"),
    _storage("add"),
    _storage("append"),
    st.builds(
        lambda ks, cas: Command("gets" if cas else "get", keys=tuple(ks)),
        st.lists(keys, min_size=1, max_size=4),
        st.booleans(),
    ),
    st.builds(lambda k: Command("delete", keys=(k,)), keys),
    st.builds(lambda k, d: Command("incr", keys=(k,), delta=d), keys, st.integers(0, 5)),
    st.builds(lambda k: Command("touch", keys=(k,), exptime=0), keys),
)


class _Writer:
    def __init__(self) -> None:
        self.out = bytearray()

    def write(self, data: bytes) -> None:
        self.out += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        pass


async def _serve(chunks: list[bytes]) -> bytes:
    """Feed ``chunks`` to one connection of a fresh server, one read each."""
    front = AsyncMemcachedServer(MemcachedServer(clock=lambda: 1000.0))
    reader = asyncio.StreamReader()
    writer = _Writer()
    task = asyncio.ensure_future(front._handle_connection(reader, writer))
    for chunk in chunks:
        reader.feed_data(chunk)
        for _ in range(3):
            await asyncio.sleep(0)
    reader.feed_eof()
    await task
    return bytes(writer.out)


@given(st.lists(commands, min_size=1, max_size=12), st.data())
@settings(max_examples=80, deadline=None)
def test_any_split_gives_identical_replies(cmds, data):
    stream = b"".join(encode_command(cmd) for cmd in cmds)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=10)))
    chunks = [stream[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(stream)])]
    whole = asyncio.run(_serve([stream]))
    assert asyncio.run(_serve(chunks)) == whole
    assert whole.count(b"\r\n") >= len(cmds)  # every command answered


def test_malformed_command_answers_error_and_closes():
    for bad in (
        b"bogus x\r\n",
        b"set k x 0 5\r\n",
        b"touch k abc\r\n",
        b"incr k abc\r\n",
        b"cas k 0 0 5 zz\r\n",
    ):
        out = asyncio.run(_serve([b"get a\r\n", bad + b"get a\r\n"]))
        assert out == b"END\r\nERROR\r\n", bad


def test_oversized_data_block_refused_on_its_header():
    """A declared length past MAX_ITEM_SIZE is refused as soon as the
    header line parses — no byte of the block is waited for."""
    header = f"set k 0 0 {2_000_000_000}\r\n".encode()
    frames = FrameBuffer()
    frames.feed(header)
    with pytest.raises(ProtocolError):
        frames.next_commands()
    assert asyncio.run(_serve([b"get a\r\n", header])) == b"END\r\nERROR\r\n"
    at_limit = f"set k 0 0 {MAX_ITEM_SIZE}\r\n".encode()
    frames = FrameBuffer()
    frames.feed(at_limit)
    assert frames.next_commands() == []  # legal: waits for the block


def test_large_data_block_is_joined_once():
    """Reads of an incomplete data block are buffered, not re-joined per
    read: the parse runs again only once the whole block has arrived."""
    value = bytes(range(256)) * 64
    stream = encode_command(Command("set", keys=("big",), data=value))
    frames = FrameBuffer()
    step = 1000
    for lo in range(0, len(stream) - step, step):
        frames.feed(stream[lo : lo + step])
        assert frames.next_commands() == []
    assert len(frames._chunks) > 10  # still unjoined
    frames.feed(stream[lo + step :])
    [cmd] = frames.next_commands()
    assert cmd.data == value and len(frames) == 0
