"""Trace persistence: save and replay packet traces as CSV.

The paper replays fixed pktgen traces; persisting ours makes every
measurement replayable byte-for-byte across machines and lets users
bring their own traces (one packet per row: the 5-tuple, frame size,
timestamp).

Two I/O regimes coexist:

- **Materialized** (:func:`load_trace` / :func:`dump_trace`): the whole
  trace as a list — convenient for small traces and tests.
- **Streaming** (:func:`iter_trace` / :func:`write_trace_iter`): packets
  flow through a generator one row at a time, so replaying or writing a
  multi-gigabyte trace holds O(1) packets in memory.  The streaming
  reader feeds :meth:`XdpPipeline.run`/:meth:`run_batch` and
  :meth:`RssDispatcher.run` directly — all accept arbitrary iterables.

Both regimes share one row codec, so malformed rows raise the same
line-numbered :class:`TraceFormatError` either way.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from .packet import Packet

FIELDS = ("src_ip", "dst_ip", "src_port", "dst_port", "proto", "size",
          "timestamp_ns")


class TraceFormatError(ValueError):
    """The input is not a valid trace: a bad header, a wrong field
    count, a non-integer or out-of-range field, or a negative
    timestamp.  Row errors carry the line number."""


def _parse_row(row: List[str], line_no: int) -> Packet:
    """One CSV row -> :class:`Packet`, with a line-numbered error."""
    if len(row) != len(FIELDS):
        raise TraceFormatError(
            f"line {line_no}: expected {len(FIELDS)} fields"
        )
    try:
        pkt = Packet(*[int(v) for v in row])
    except ValueError as exc:
        raise TraceFormatError(f"line {line_no}: {exc}") from None
    if pkt.timestamp_ns < 0:
        raise TraceFormatError(
            f"line {line_no}: timestamp_ns must be non-negative"
        )
    return pkt


def _check_header(reader) -> None:
    header = next(reader, None)
    if header is None or tuple(header) != FIELDS:
        raise TraceFormatError(
            f"not a trace file: expected header {','.join(FIELDS)}"
        )


def dump_trace(trace: Iterable[Packet], path: Union[str, Path]) -> int:
    """Write ``trace`` (any iterable) to a CSV file; returns the count."""
    with open(path, "w", newline="") as fh:
        return dump_trace_file(trace, fh)


def dump_trace_file(trace: Iterable[Packet], fh: IO[str]) -> int:
    writer = csv.writer(fh)
    writer.writerow(FIELDS)
    count = 0
    for pkt in trace:
        writer.writerow(
            (pkt.src_ip, pkt.dst_ip, pkt.src_port, pkt.dst_port, pkt.proto,
             pkt.size, pkt.timestamp_ns)
        )
        count += 1
    return count


def write_trace_iter(packets: Iterable[Packet], path: Union[str, Path]) -> int:
    """Stream ``packets`` to a CSV file without materializing them.

    The streaming spelling of :func:`dump_trace` — pairs with generator
    sources (:meth:`FlowGenerator.iter_trace`, :func:`iter_trace`) so a
    trace of any length is written with O(1) packets resident.  Returns
    the number of rows written.
    """
    return dump_trace(packets, path)


def load_trace(path: Union[str, Path]) -> List[Packet]:
    """Read a CSV trace written by :func:`dump_trace`."""
    with open(path, newline="") as fh:
        return load_trace_file(fh)


def load_trace_file(fh: IO[str]) -> List[Packet]:
    return list(iter_trace_file(fh))


def iter_trace(path: Union[str, Path]) -> Iterator[Packet]:
    """Stream a CSV trace from disk one packet at a time.

    A generator: the file is opened lazily on first iteration and
    closed when the generator is exhausted or garbage-collected, so an
    arbitrarily large trace replays with O(1) packets resident.  Rows
    are validated exactly like :func:`load_trace` (same line-numbered
    errors).
    """
    with open(path, newline="") as fh:
        for pkt in iter_trace_file(fh):
            yield pkt


def iter_trace_file(fh: IO[str]) -> Iterator[Packet]:
    """Stream packets from an open trace file object."""
    reader = csv.reader(fh)
    _check_header(reader)
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        yield _parse_row(row, line_no)


def dumps_trace(trace: Iterable[Packet]) -> str:
    """Trace as a CSV string (for tests and embedding)."""
    buf = io.StringIO()
    dump_trace_file(trace, buf)
    return buf.getvalue()


def loads_trace(text: str) -> List[Packet]:
    return load_trace_file(io.StringIO(text))


def iter_trace_str(text: str) -> Iterator[Packet]:
    """Streaming counterpart of :func:`loads_trace`."""
    return iter_trace_file(io.StringIO(text))
