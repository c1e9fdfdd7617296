"""A large page-view file parsed in two processes, for ingest.load_pageviews_csv.

ingest imports this module only for a file of at least its _SPLIT_FLOOR bytes,
in a process that can fork and has two usable CPUs and one thread. The file
is cut at the first line end after a fixed share of its data bytes. This
process parses the rows before the cut and a forked child the rest, each
streaming its own byte range through ingest._fill_pages. The child sends its
pages back through a pipe as packed columns, and this process appends them to
its own. Whenever the split cannot give the one-process result, load_split
returns None and ingest parses the whole file in one process: then that parse
raises the exact RowError, with its line, of a bad row in either part.
"""

from __future__ import annotations

import csv
import marshal
import os
import signal
from array import array
from itertools import chain

from .ingest import _fill_pages, iso_date

# bytes per read, so neither process holds the whole file or a part of it
BLOCK = 1 << 16
# the parent's share of the data bytes, past half so that the child seldom keeps
# it waiting: on 18 MB the parent's 55% took ~415 ms in every run, and the
# child's 45% 206-390 ms, plus 20-35 ms to pack its pages
PARENT_SHARE = 0.55


def load_split(path, indices) -> dict | None:
    """The pages of the file at path, as _fill_pages fills them, parsed in two
    processes; or None where the one-process parse must decide: the file
    holds a `"`, so a line end may lie inside a quoted field; a part
    raises; or a page goes back in time in the child's part or across the
    cut, where it may also repeat a day."""
    with open(path, "rb") as handle:
        fd = handle.fileno()
        size = os.fstat(fd).st_size
        bounds = _bounds(fd, size)
        if bounds is None:
            return None
        start, cut = bounds
        try:
            read_end, write_end = os.pipe()
        except OSError:
            return None
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            return None
        if pid == 0:
            _child(fd, cut, size, indices, read_end, write_end)  # never returns
        os.close(write_end)
        pages, dates, packed, status = {}, {}, None, None
        try:
            with open(read_end, "rb") as pipe:
                _fill_pages(_rows(fd, start, cut), indices, pages, dates)
                packed = pipe.read()
        except Exception:
            pass  # the one-process parse raises the exact error
        finally:
            if packed is None:  # this part failed: the child's pages are not wanted
                os.kill(pid, signal.SIGKILL)
            try:
                _, status = os.waitpid(pid, 0)
            except ChildProcessError:  # SIGCHLD ignored: the child was reaped unseen
                pass
    return _merge(pages, dates, packed) if packed is not None and status == 0 else None


def _bounds(fd, size: int) -> tuple[int, int] | None:
    """(first data byte, cut) of the file, or None where it must not be
    cut: it holds a `"`, its header ends in a lone carriage return (which the
    csv module also takes as a line end), or no line end follows the cut's
    offset."""
    if any(b'"' in os.pread(fd, BLOCK, pos) for pos in range(0, size, BLOCK)):
        return None
    start = _line_end(fd, 0)
    if start is None or b"\r" in os.pread(fd, start, 0)[:-2]:
        return None
    cut = _line_end(fd, start + int((size - start) * PARENT_SHARE))
    if cut is None or cut >= size:
        return None
    return start, cut


def _line_end(fd, pos: int) -> int | None:
    """The offset just past the first newline at or after pos, or None."""
    while block := os.pread(fd, BLOCK, pos):
        if (i := block.find(b"\n")) >= 0:
            return pos + i + 1
        pos += len(block)
    return None


def _rows(fd, pos: int, end: int):
    """A csv.reader over bytes [pos, end) of fd, which end at a newline."""
    return csv.reader(chain.from_iterable(_lines(fd, pos, end)))


def _lines(fd, pos: int, end: int):
    """The lines of bytes [pos, end) of fd, a block of whole lines at a time,
    read by offset: the child shares the parent's file offset, so neither
    moves it. A line of over BLOCK bytes raises ValueError, and a lone
    carriage return inside a line makes the csv module raise csv.Error; then
    the one-process parse decides."""
    while pos < end:
        block = os.pread(fd, min(BLOCK, end - pos), pos)
        size = len(block) if pos + len(block) == end else block.rfind(b"\n") + 1
        if not size:
            raise ValueError(f"a line of over {BLOCK} bytes")
        pos += size
        yield block[:size].decode("utf-8").split("\n")


def _child(fd, pos: int, end: int, indices, read_end: int, write_end: int):
    """The child: parse bytes [pos, end), send the packed pages and exit, with
    status 0 only once all of them are sent. It never returns, so no caller's
    cleanup runs twice, and os._exit flushes none of the parent's buffers."""
    status = 1
    try:
        os.close(read_end)
        pages, dates = {}, {}
        _fill_pages(_rows(fd, pos, end), indices, pages, dates)
        packed = _pack(pages, dates)
        with open(write_end, "wb") as pipe:
            pipe.write(packed)
        status = 0
    finally:
        os._exit(status)


def _pack(pages: dict, dates: dict) -> bytes:
    """pages as marshalled columns: the page keys in order, each page's number
    of days, the distinct date strings, each row's index into them
    (array('i')) and each row's count (array('q'))."""
    if any(seen is not None for _, _, _, seen in pages.values()):
        raise ValueError("a page went back in time")  # the parent parses the whole file
    index = {day: i for i, day in enumerate(dates.values())}
    days = array("i", map(index.__getitem__, chain.from_iterable(
        page_days for page_days, _, _, _ in pages.values())))
    counts = array("q")
    for _, page_counts, _, _ in pages.values():
        counts += page_counts
    lengths = [len(page_days) for page_days, _, _, _ in pages.values()]
    return marshal.dumps((list(pages), lengths, list(dates), days.tobytes(), counts.tobytes()))


def _merge(pages: dict, dates: dict, packed: bytes) -> dict | None:
    """pages with the child's packed pages appended, each day mapped to this
    process's date object for it; None if a page repeats a day or goes back
    in time across the cut."""
    keys, lengths, table, days, counts = marshal.loads(packed)
    days, counts = array("i", days), array("q", counts)
    day_of = [dates.get(text) or iso_date(text) for text in table]
    start = 0
    for key, n in zip(keys, lengths):
        page_days = list(map(day_of.__getitem__, days[start:start + n]))
        page_counts = counts[start:start + n]
        start += n
        entry = pages.get(key)
        if entry is None:
            pages[key] = [page_days, page_counts, page_days[-1], None]
        elif entry[2] < page_days[0]:  # the page's rows continue past the cut
            entry[0] += page_days
            entry[1] += page_counts
        else:
            return None
    return pages
