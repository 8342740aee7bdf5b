"""Memcached ASCII protocol subset: parsing and formatting.

Implements the commands RnB needs — ``get``/``gets`` (multi-key),
``set``, ``cas``, ``delete``, ``flush_all``, ``stats``, ``version`` —
with the wire format of the original memcached text protocol:

* commands are CRLF-terminated lines; storage commands are followed by a
  data block of the declared length plus CRLF;
* ``get`` responses are zero or more ``VALUE <key> <flags> <bytes>
  [<cas>]`` blocks terminated by ``END``.

The codec is shared by the server (parse requests, format responses) and
the client (format requests, parse responses), so a round-trip property
test pins the two against each other.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ProtocolError

CRLF = b"\r\n"
MAX_KEY_LEN = 250
STORAGE_COMMANDS = frozenset({"set", "add", "replace", "append", "prepend", "cas"})
RETRIEVAL_COMMANDS = frozenset({"get", "gets"})
COUNTER_COMMANDS = frozenset({"incr", "decr"})
SIMPLE_COMMANDS = frozenset({"delete", "touch", "flush_all", "stats", "version"})


@dataclass(frozen=True, slots=True)
class Command:
    """One parsed client command."""

    name: str
    keys: tuple[str, ...] = ()
    flags: int = 0
    exptime: int = 0
    data: bytes = b""
    cas: int | None = None
    noreply: bool = False
    delta: int = 0  # incr/decr amount


@dataclass(frozen=True, slots=True)
class Response:
    """One parsed server response.

    ``status`` is the terminal line (``END``, ``STORED`` ...);
    ``values`` maps key -> (flags, data, cas-or-None) for retrievals.
    ``data`` is ``bytes`` from :func:`parse_response` or a zero-copy
    ``memoryview`` when parsed off a transport's :class:`FrameBuffer`
    (equal to the bytes it aliases; clients materialise at their
    boundary — see ``MemcachedConnection.get_multi``).
    """

    status: str
    values: dict[str, tuple[int, bytes | memoryview, int | None]] = field(
        default_factory=dict
    )
    stats: dict[str, str] = field(default_factory=dict)


#: any character memcached allows in a key: not a control character,
#: space or DEL
_KEY_CHAR = "[^\\x00-\\x20\\x7f]"
_KEY = re.compile(f"{_KEY_CHAR}{{1,{MAX_KEY_LEN}}}")
#: a retrieval's keys joined by single spaces
_KEY_LIST = re.compile(f"{_KEY.pattern}(?: {_KEY.pattern})*")


def _validate_key(key: str) -> None:
    if _KEY.fullmatch(key) is None:
        if not key or len(key) > MAX_KEY_LEN:
            raise ProtocolError(f"invalid key length: {len(key)}")
        raise ProtocolError(f"key contains control characters or spaces: {key!r}")


def _validate_keys(keys: Sequence[str]) -> str:
    """Check every key of a retrieval in one scan; returns them space-joined.

    The joined line matches :data:`_KEY_LIST` with exactly
    ``len(keys) - 1`` spaces iff every key passes :func:`_validate_key`
    (a key holding a space adds one).  On failure the keys are checked
    one by one, so the error names the offending key.
    """
    line = " ".join(keys)
    if _KEY_LIST.fullmatch(line) is None or line.count(" ") != len(keys) - 1:
        for key in keys:
            _validate_key(key)
        raise ProtocolError("retrieval needs at least one key")
    return line


# ---------------------------------------------------------------------------
# client side: encode commands / parse responses
# ---------------------------------------------------------------------------


def encode_command(cmd: Command | str, keys: Sequence[str] = ()) -> bytes:
    """Serialise a command to wire bytes.

    ``cmd`` is a :class:`Command`, or the name of a retrieval command
    (``get``/``gets``) with its ``keys``: a per-transaction multi-get has
    nothing else to encode, so it need not build a :class:`Command`.
    """
    if isinstance(cmd, str):
        name = cmd
        if name not in RETRIEVAL_COMMANDS:
            raise ProtocolError(f"{name!r} is not a retrieval command")
    else:
        name, keys = cmd.name, cmd.keys
    if name in RETRIEVAL_COMMANDS:
        if not keys:
            raise ProtocolError(f"{name} needs at least one key")
        return f"{name} {_validate_keys(keys)}\r\n".encode()
    if name in STORAGE_COMMANDS:
        if len(cmd.keys) != 1:
            raise ProtocolError(f"{name} takes exactly one key")
        _validate_key(cmd.keys[0])
        parts = [name, cmd.keys[0], str(cmd.flags), str(cmd.exptime), str(len(cmd.data))]
        if name == "cas":
            if cmd.cas is None:
                raise ProtocolError("cas command requires a cas id")
            parts.append(str(cmd.cas))
        if cmd.noreply:
            parts.append("noreply")
        return " ".join(parts).encode() + CRLF + cmd.data + CRLF
    if name == "delete":
        if len(cmd.keys) != 1:
            raise ProtocolError("delete takes exactly one key")
        _validate_key(cmd.keys[0])
        suffix = " noreply" if cmd.noreply else ""
        return f"delete {cmd.keys[0]}{suffix}".encode() + CRLF
    if name == "touch":
        if len(cmd.keys) != 1:
            raise ProtocolError("touch takes exactly one key")
        _validate_key(cmd.keys[0])
        suffix = " noreply" if cmd.noreply else ""
        return f"touch {cmd.keys[0]} {cmd.exptime}{suffix}".encode() + CRLF
    if name in COUNTER_COMMANDS:
        if len(cmd.keys) != 1:
            raise ProtocolError(f"{name} takes exactly one key")
        _validate_key(cmd.keys[0])
        if cmd.delta < 0:
            raise ProtocolError(f"{name} delta must be non-negative")
        suffix = " noreply" if cmd.noreply else ""
        return f"{name} {cmd.keys[0]} {cmd.delta}{suffix}".encode() + CRLF
    if name == "stats":
        if len(cmd.keys) > 1:
            raise ProtocolError("stats takes at most one argument")
        arg = f" {cmd.keys[0]}" if cmd.keys else ""
        return f"stats{arg}".encode() + CRLF
    if name in ("flush_all", "version"):
        return name.encode() + CRLF
    raise ProtocolError(f"unknown command {name!r}")


_TERMINAL_TOKENS = frozenset(
    {
        "END",
        "STORED",
        "NOT_STORED",
        "EXISTS",
        "NOT_FOUND",
        "DELETED",
        "TOUCHED",
        "OK",
        "ERROR",
        "VERSION",
        "CLIENT_ERROR",
        "SERVER_ERROR",
    }
)


#: the lines of a retrieval reply, ``VALUE <key> <flags> <bytes> [<cas>]``
#: and the terminal ``END``: each is parsed by this one match at its
#: offset; a line starting ``VALUE`` that does not match it is malformed
_RETRIEVAL_LINE = re.compile(rb"VALUE (\S+) (\d+) (\d+)(?: (\d+))?\r\n|END\r\n")


def parse_response_at(
    data: bytes, pos: int = 0, *, view: memoryview | None = None
) -> tuple[Response, int]:
    """Parse one complete response from ``data`` starting at offset ``pos``.

    Returns ``(response, end_offset)``.  This is the offset-based core
    both :func:`parse_response` and :class:`FrameBuffer` share: it never
    re-slices the unconsumed tail, so parsing a pipelined buffer is
    linear in its length instead of quadratic.

    With ``view`` (a ``memoryview`` of ``data``), VALUE payloads are
    returned as zero-copy slices of that view.  ``data`` must then be an
    *immutable* ``bytes`` object — the views alias it and stay valid for
    as long as the caller holds them.  Without ``view``, payloads are
    materialised ``bytes`` copies (the legacy behaviour).
    """
    values: dict[str, tuple[int, bytes | memoryview, int | None]] = {}
    stats: dict[str, str] = {}
    n_data = len(data)
    match_line = _RETRIEVAL_LINE.match
    while True:
        m = match_line(data, pos)
        if m is not None:
            key, flags, nbytes, cas = m.groups()
            line_end = m.end()
            if key is None:
                return Response(status="END", values=values, stats=stats), line_end
            body_end = line_end + int(nbytes)
            if not data.startswith(CRLF, body_end):
                if n_data < body_end + 2:
                    raise IncompleteResponse("value data incomplete")
                raise ProtocolError("value data not CRLF-terminated")
            if view is not None:
                payload: bytes | memoryview = view[line_end:body_end]
            else:
                payload = data[line_end:body_end]
            values[key.decode("utf-8", "replace")] = (
                int(flags),
                payload,
                None if cas is None else int(cas),
            )
            pos = body_end + 2
            continue
        eol = data.find(CRLF, pos)
        if eol < 0:
            raise IncompleteResponse("response line incomplete")
        text = data[pos:eol].decode("utf-8", errors="replace")
        token = text.split(" ", 1)[0]
        line_end = eol + 2
        if token == "VALUE":
            raise ProtocolError(f"malformed VALUE line: {text!r}")
        if token == "STAT":
            parts = text.split(" ", 2)
            if len(parts) != 3:
                raise ProtocolError(f"malformed STAT line: {text!r}")
            stats[parts[1]] = parts[2]
            pos = line_end
            continue
        if token.isdigit():
            # incr/decr reply: the new counter value as a bare number
            return Response(status=text, values=values, stats=stats), line_end
        if token in _TERMINAL_TOKENS:
            status = text if token in ("CLIENT_ERROR", "SERVER_ERROR", "VERSION") else token
            return Response(status=status, values=values, stats=stats), line_end
        raise ProtocolError(f"unexpected response line: {text!r}")


def parse_response(data: bytes) -> tuple[Response, bytes]:
    """Parse one complete response from a byte buffer.

    Returns (response, remaining bytes).  Raises ``ProtocolError`` on
    malformed input and ``IncompleteResponse`` (a ``ProtocolError``
    subclass via ``need_more``) when more bytes are required.

    Payloads are materialised ``bytes``; transports that want zero-copy
    VALUE bodies use :class:`FrameBuffer` / :func:`parse_response_at`
    with a ``view`` instead.
    """
    resp, end = parse_response_at(bytes(data), 0)
    return resp, data[end:]


class IncompleteResponse(ProtocolError):
    """More bytes are needed to complete parsing."""


class FrameBuffer:
    """Incremental framing of a byte stream: responses or commands.

    Transports feed raw socket chunks in; :meth:`next_response` parses
    out one complete response at a time (the client side) and
    :meth:`next_commands` every complete pipelined command (the server
    side), returning ``None`` / ``[]`` when more bytes are needed.
    Internally the unconsumed bytes are tracked as an (immutable
    snapshot, offset) pair plus a list of not-yet-joined chunks, so
    pipelined streams parse with one join per read instead of one
    whole-buffer copy per frame.  While a command's declared data block
    is still arriving, chunks are not joined at all until it is complete,
    so a large storage command costs one copy, not one per read.

    VALUE payloads are ``memoryview`` slices into the immutable
    snapshot (``zero_copy=True``, the default): no per-item bytes copy
    is made, and because the snapshot is ``bytes`` the views stay valid
    for as long as the caller keeps them — at the cost of keeping the
    snapshot alive.  Callers that hand payloads to long-lived storage
    should materialise them (``bytes(payload)``) at their boundary;
    :meth:`repro.protocol.memclient.MemcachedConnection.get_multi` does
    exactly that unless asked for ``raw`` views.
    """

    __slots__ = ("_data", "_pos", "_chunks", "_n_chunked", "_need")

    def __init__(self) -> None:
        self._data = b""
        self._pos = 0
        self._chunks: list[bytes] = []
        #: bytes held in ``_chunks``
        self._n_chunked = 0
        #: unconsumed bytes the next command needs before a parse can succeed
        self._need = 0

    def feed(self, chunk: bytes) -> None:
        """Append raw received bytes (joined lazily on next parse)."""
        if chunk:
            self._chunks.append(bytes(chunk))
            self._n_chunked += len(chunk)

    def __len__(self) -> int:
        return (len(self._data) - self._pos) + self._n_chunked

    def peek(self, n: int) -> bytes:
        """Up to ``n`` unconsumed bytes (for error messages)."""
        self._consolidate()
        return self._data[self._pos : self._pos + n]

    def clear(self) -> None:
        self._data = b""
        self._pos = 0
        self._chunks.clear()
        self._n_chunked = 0
        self._need = 0

    def _consolidate(self) -> None:
        if not self._chunks:
            return
        tail = self._data[self._pos :]
        if tail:
            self._data = tail + b"".join(self._chunks)
        elif len(self._chunks) == 1:
            self._data = self._chunks[0]
        else:
            self._data = b"".join(self._chunks)
        self._pos = 0
        self._chunks.clear()
        self._n_chunked = 0

    def next_response(self, *, zero_copy: bool = True) -> Response | None:
        """Parse one response if complete, else ``None``.

        With ``zero_copy`` the response's VALUE payloads are memoryview
        slices of this buffer's current snapshot (see class docstring);
        otherwise they are independent ``bytes``.
        """
        self._consolidate()
        try:
            resp, end = parse_response_at(
                self._data,
                self._pos,
                view=memoryview(self._data) if zero_copy else None,
            )
        except IncompleteResponse:
            return None
        self._pos = end
        return resp

    def next_commands(self) -> list[Command]:
        """Parse every complete command buffered so far (maybe none).

        Raises :class:`repro.errors.ProtocolError` on a malformed command.
        """
        if len(self) < self._need:
            return []
        self._consolidate()
        commands, tail = parse_command_stream(self._data)
        self._data = tail
        self._need = _parse_commands(tail)[2] if tail else 0
        return commands


# ---------------------------------------------------------------------------
# server side: parse commands / format responses
# ---------------------------------------------------------------------------


def parse_command_stream(data: bytes) -> tuple[list[Command], bytes]:
    """Parse as many complete (possibly pipelined) commands as available.

    Returns (commands, unconsumed tail).
    """
    commands, pos, _ = _parse_commands(data)
    return commands, data[pos:]


def _parse_commands(data: bytes) -> tuple[list[Command], int, int]:
    """Parse the complete commands at the start of ``data``.

    Returns ``(commands, end, need)``: ``end`` is the offset of the first
    unparsed byte, and the command starting there cannot complete before
    ``data`` is ``need`` bytes long (the end of a storage command's data
    block, or one more byte while its line is unterminated).
    """
    commands: list[Command] = []
    pos = 0
    n_data = len(data)
    while True:
        eol = data.find(CRLF, pos)
        if eol < 0:
            return commands, pos, n_data + 1
        text = data[pos:eol].decode("utf-8", errors="replace")
        line_end = eol + 2
        parts = text.split()
        if not parts:
            pos = line_end
            continue
        name = parts[0]
        if name in RETRIEVAL_COMMANDS:
            keys = tuple(parts[1:])
            if not keys:
                raise ProtocolError(f"{name} without keys")
            _validate_keys(keys)
            commands.append(Command(name=name, keys=keys))
            pos = line_end
            continue
        if name in STORAGE_COMMANDS:
            want = 6 if name == "cas" else 5
            noreply = parts[-1] == "noreply"
            body = parts[: want + (1 if noreply else 0)]
            if len(parts) != len(body) or len(parts) < want:
                raise ProtocolError(f"malformed {name} command: {text!r}")
            key = parts[1]
            _validate_key(key)
            flags, exptime, nbytes = int(parts[2]), int(parts[3]), int(parts[4])
            cas = int(parts[5]) if name == "cas" else None
            if nbytes < 0:
                raise ProtocolError("negative data length")
            body_end = line_end + nbytes
            if n_data < body_end + 2:
                return commands, pos, body_end + 2  # wait for the data block
            if data[body_end : body_end + 2] != CRLF:
                raise ProtocolError("storage data not CRLF-terminated")
            # data blocks stay bytes copies: the server stores them past
            # the lifetime of this receive buffer
            commands.append(
                Command(
                    name=name,
                    keys=(key,),
                    flags=flags,
                    exptime=exptime,
                    data=data[line_end:body_end],
                    cas=cas,
                    noreply=noreply,
                )
            )
            pos = body_end + 2
            continue
        if name == "delete":
            if len(parts) < 2:
                raise ProtocolError("delete without key")
            _validate_key(parts[1])
            commands.append(
                Command(name="delete", keys=(parts[1],), noreply=parts[-1] == "noreply")
            )
            pos = line_end
            continue
        if name == "touch":
            if len(parts) < 3:
                raise ProtocolError("touch needs a key and an exptime")
            _validate_key(parts[1])
            commands.append(
                Command(
                    name="touch",
                    keys=(parts[1],),
                    exptime=int(parts[2]),
                    noreply=parts[-1] == "noreply",
                )
            )
            pos = line_end
            continue
        if name in COUNTER_COMMANDS:
            if len(parts) < 3:
                raise ProtocolError(f"{name} needs a key and a delta")
            _validate_key(parts[1])
            delta = int(parts[2])
            if delta < 0:
                raise ProtocolError(f"{name} delta must be non-negative")
            commands.append(
                Command(
                    name=name,
                    keys=(parts[1],),
                    delta=delta,
                    noreply=parts[-1] == "noreply",
                )
            )
            pos = line_end
            continue
        if name == "stats":
            # `stats [<arg>]` — real memcached takes an optional argument
            # selecting a sub-report; `stats metrics` is the RnB
            # Prometheus-text surface (docs/OBSERVABILITY.md)
            if len(parts) > 2:
                raise ProtocolError(f"stats takes at most one argument: {text!r}")
            commands.append(Command(name="stats", keys=tuple(parts[1:])))
            pos = line_end
            continue
        if name in ("flush_all", "version"):
            commands.append(Command(name=name))
            pos = line_end
            continue
        raise ProtocolError(f"unknown command: {text!r}")


def format_value(key: str, flags: int, payload: bytes, cas: int | None = None) -> bytes:
    """One VALUE block of a retrieval response (``cas`` for ``gets``)."""
    if cas is None:
        header = f"VALUE {key} {flags} {len(payload)}\r\n"
    else:
        header = f"VALUE {key} {flags} {len(payload)} {cas}\r\n"
    return header.encode() + payload + CRLF


def format_values(items: list[tuple[str, int, bytes, int | None]], with_cas: bool) -> bytes:
    """Format a retrieval response (VALUE blocks + END)."""
    out = [
        format_value(key, flags, payload, cas if with_cas else None)
        for key, flags, payload, cas in items
    ]
    out.append(b"END" + CRLF)
    return b"".join(out)


def format_status(status: str) -> bytes:
    return status.encode() + CRLF


def format_stats(stats: dict[str, object]) -> bytes:
    out = bytearray()
    for k, v in stats.items():
        out += f"STAT {k} {v}".encode() + CRLF
    out += b"END" + CRLF
    return bytes(out)
