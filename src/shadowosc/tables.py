"""Jobs cut into chunks that this process and one forked child claim: the
one place that forks.

Three callers cut their work into chunks whose results depend only on their
own index: the flow files of one ``flow`` call, or one flow file alone (a
flow sample is closed-form in its own t), a ``sweep`` grid (a row depends
only on its own tau_k) and ``verify``'s suite (one subject per chunk,
through ``results``).  Where ``splits`` allows, a pipe holds one byte per
chunk index (at most 255) before one child is forked, and both processes
claim the next index with a one-byte ``os.read``, which cannot split, until
the pipe is empty; so the process on the faster CPU runs more chunks.  No
process is pinned to a CPU: the scheduler places them.  The child sends
each chunk's results, pickled, down a report pipe as it finishes the chunk.
``_run`` runs a job to its end: this process claims until the pipe is
empty, then reads the child's reports to their end and reaps it, the one
wait for the child per job.

``writing`` runs every table of a job with one fork: the rows of all the
tables, numbered in order across them, are cut into chunks, and a chunk may
straddle two tables.  A chunk writes its rows to its process's anonymous
part file, so memory stays independent of the tables' length, and reports
its span there in each table it covers.  The caller commits the tables one
at a time, in order.  The first commit opens the two part files beside its
``out`` (in the system's temporary directory for stdout) and runs the job,
so the child has been reaped before any copy; each commit then copies its
table's spans to the sink, by ``os.copy_file_range`` into a file: the bytes
of a single pass.

A chunk that raises ends its process's claims and empties the pipe; every
lower chunk has been claimed by then and runs to its end.  The error of the
lowest failing chunk, that of a single pass, is raised by the commit of the
table it fails in, so every earlier table is whole.  On any error or
interrupt the child is killed and reaped and the part files removed.
``sink`` is where a table goes: its ``--out`` file, written under a
``.part`` name and renamed when complete, or stdout, once the table is whole.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager, suppress
from functools import partial
from itertools import accumulate, chain, islice, pairwise

_CHUNK = 1024  # rows per write
# Most chunks in a job: one byte in the claim pipe holds a chunk's index.
_MAX_CHUNKS = 255
_COPY = 1 << 20  # bytes per read when a span is copied by reading


class Table:
    """n rows between a head and a tail: ``texts(start, stop)`` gives the
    texts of rows start <= k < stop in order, each depending on its k alone.
    (A plain class: a NamedTuple costs about 0.2 ms more to import.)"""

    __slots__ = ("n", "texts", "head", "tail")

    def __init__(self, n: int, texts: Callable[[int, int], Iterator[str]], head: str,
                 tail: str):
        self.n, self.texts, self.head, self.tail = n, texts, head, tail


def _naming(path: str | os.PathLike, call: Callable, *args):
    """``call(*args)``, whose OSError names ``path``, the file a command
    writes, in place of the temporary name ``call`` was given."""
    try:
        return call(*args)
    except OSError as exc:
        exc.filename = os.fspath(path)
        del exc.filename2  # os.replace's second name; None would still print
        raise


@contextmanager
def _replacing(path: str | os.PathLike):
    """Text file on a temporary name beside ``path``, renamed to ``path`` when
    the block completes and removed if it raises, so ``path`` is never partial.
    An error opening or renaming it names ``path``."""
    from pathlib import Path  # here: only an --out file needs it

    path = Path(path)
    part = path.with_name(path.name + ".part")
    f = _naming(path, open, part, "w")  # opened, or there is no part to remove
    try:
        with f:
            yield f
        _naming(path, os.replace, part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


@contextmanager
def sink(out: str | os.PathLike | None):
    """Where a command's table goes: the file ``out`` through ``_replacing``,
    or, for no ``out``, a buffer written to stdout once the block completes,
    so that a command that fails prints none of its table."""
    if out:
        with _replacing(out) as f:
            yield f
        return
    f = io.StringIO()
    yield f
    sys.stdout.write(f.getvalue())


def _blocks(texts: Iterator[str]) -> Iterator[str]:
    """The texts joined _CHUNK at a time: fewer, larger writes than one per row."""
    while block := "".join(islice(texts, _CHUNK)):
        yield block


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def splits(n: int, least: int) -> bool:
    """Whether a job of n items runs in this process and one forked child,
    each running at least ``least`` of them: where n >= 2 * least, two CPUs
    are usable, the system can fork, the caller runs no second thread (a
    forked child gets only the forking thread, and could inherit a lock
    another one holds) and SIGCHLD is not ignored (the system would reap the
    child, and waitpid fail).

    One child, however many CPUs: two processes are the count measured, on a
    2-core host, and the affinity mask that _usable_cpus reads does not
    narrow for a cgroup CPU quota, so more children could crowd one or two
    CPUs.
    """
    threading = sys.modules.get("threading")
    if not (n >= 2 * least and hasattr(os, "fork") and _usable_cpus() > 1
            and (threading is None or threading.active_count() == 1)):
        return False
    import signal  # here and in _run: only a split job needs it

    return signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN


def _chunk_ranges(n: int, least: int) -> list[tuple[int, int]]:
    """Contiguous index ranges [start, stop) covering n rows in order, one per
    chunk: at most _MAX_CHUNKS of them, of at least ``least // 8`` rows, so
    that a process running its least rows claims about eight chunks."""
    count = min(_MAX_CHUNKS, max(1, n // max(1, least // 8)))
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


# A chunk as run: its index, the results its work yielded, and its error, if
# the work raised.
Event = tuple[int, list, "BaseException | None"]


def _claim(claims: int, work: Callable[[int], Iterable]) -> Iterator[Event]:
    """Claim chunk indices from the pipe ``claims`` until it is empty, yielding
    each chunk's event once ``work(index)`` has yielded all its results; a
    chunk that raises ends the claims and empties the pipe, so that no process
    claims a later chunk."""
    while claimed := os.read(claims, 1):
        index, done, error = claimed[0], [], None
        try:
            for result in work(index):
                done.append(result)
        except BaseException as exc:  # reported to the caller, which raises it
            error = exc
            while os.read(claims, _MAX_CHUNKS):
                pass
        yield index, done, error
        if error is not None:
            return


def _run(count: int,
         work: Callable[[bool, int], Iterable]) -> list[tuple[list, BaseException | None]]:
    """Each chunk's results and error (None: none), by index, of the job of
    chunks 0 <= index < count (at most _MAX_CHUNKS) that this process and one
    forked child claim, ``work(in_child, index)`` yielding a chunk's results.

    The child sends each ``_claim`` event, pickled, down its report pipe as
    the chunk ends.  It ends only through ``os._exit``, so it never flushes a
    buffer it inherited (the caller's stdout, say); a child that cannot send
    an event exits with status 1 and sends no more.  SIGINT stays blocked
    from before the fork until the child's pid is bound here, so an interrupt
    cannot leave a child this process does not know of; the child keeps it
    blocked.

    This process claims chunks until the pipe is empty; an error of its own
    that is no ``Exception`` (an interrupt, say) is raised at once.  It then
    reads the child's reports to their end and reaps the child.  A chunk that
    no process reported has the error of a child that ended without a
    report; a chunk that none claimed lies above a failing one.  On any
    error the child is killed and reaped.
    """
    import pickle
    import signal

    claims, fill = os.pipe()
    try:
        os.write(fill, bytes(range(count)))  # fewer bytes than any pipe holds
    finally:
        os.close(fill)
    ran: dict[int, tuple[list, BaseException | None]] = {}
    lost: BaseException = ChildProcessError("no process ran the chunk")
    pid = 0
    try:
        read, write = os.pipe()
        with open(read, "rb") as reports:
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # the caller's
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        reports.close()
                        with open(write, "wb") as pipe:
                            for event in _claim(claims, partial(work, True)):
                                pipe.write(pickle.dumps(event))
                                pipe.flush()
                    except BaseException:
                        os._exit(1)
                    os._exit(0)
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for index, done, error in _claim(claims, partial(work, False)):
                if error is not None and not isinstance(error, Exception):
                    raise error
                ran[index] = done, error
            with suppress(EOFError):
                while True:
                    index, done, error = pickle.load(reports)
                    ran[index] = done, error
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            lost = ChildProcessError(f"a forked worker sent no report (exit status {code})")
    except BaseException:
        # waitpid raises for a reaped pid, which is then never signalled,
        # since it may have been reused
        with suppress(ChildProcessError):
            if pid and not os.waitpid(pid, os.WNOHANG)[0]:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        raise
    finally:
        os.close(claims)
    return [ran.get(index, ([], lost)) for index in range(count)]


def _result(ran: list[tuple[list, BaseException | None]], index: int, k: int):
    """Chunk ``index``'s k-th result in ``_run``'s list, or the chunk's error
    if it raised before yielding it.  Asked for in order, every lower chunk's
    result having been read, the error raised is that of the lowest failing
    chunk: the error of a single pass."""
    done, error = ran[index]
    if k < len(done):
        return done[k]
    raise error


def results(calls: Sequence[Callable[[], object]]) -> list:
    """``[call() for call in calls]``, one call per chunk (at most _MAX_CHUNKS),
    claimed by this process and one forked child where ``splits`` allows.

    A child's results travel pickled, as the package's errors do; the error
    raised is that of the lowest failing call, the one a single pass raises.
    """
    if not splits(len(calls), 1):
        return [call() for call in calls]
    ran = _run(len(calls), lambda in_child, index: (calls[index](),))
    return [_result(ran, index, 0) for index in range(len(calls))]


@contextmanager
def writing(tables: Sequence[Table],
            least: int) -> Iterator[Callable[[str | os.PathLike | None], None]]:
    """Yield ``commit(out)``, which writes the next of ``tables``, whole, to
    ``sink(out)``; a process runs at least ``least`` of the tables' rows.

    Split, this process and its child claim the chunks of all the tables'
    rows, and each writes its chunks to its own anonymous part file.  The
    first commit opens the two part files beside its ``out``, so that
    ``os.copy_file_range`` copies within one file system, or for stdout in
    the system's temporary directory, and runs the job to its end; each
    commit then copies its table's spans to the sink in order.  A chunk's
    error is raised by the commit of the table it fails in, so the tables
    before it are whole.
    """
    if not splits(sum(table.n for table in tables), least):
        left = iter(tables)

        def commit(out: str | os.PathLike | None) -> None:
            table = next(left)
            with sink(out) as f:
                f.write(table.head)
                for block in _blocks(table.texts(0, table.n)):
                    f.write(block)
                f.write(table.tail)

        yield commit
        return
    import tempfile

    starts = list(accumulate((table.n for table in tables), initial=0))
    # each chunk's pieces, (table, start, stop) in order
    pieces = [[(i, max(a, lo) - lo, min(b, hi) - lo)
               for i, (lo, hi) in enumerate(pairwise(starts)) if lo < b and a < hi]
              for a, b in _chunk_ranges(starts[-1], least)]
    with ExitStack() as parts_open:
        parts: list = []  # this process's part file, then the child's

        def work(in_child: bool, index: int) -> Iterator[tuple[bool, int, int]]:
            part = parts[in_child]
            for i, start, stop in pieces[index]:
                begin = part.tell()
                for block in _blocks(tables[i].texts(start, stop)):
                    part.write(block.encode())
                part.flush()
                yield in_child, begin, part.tell()

        ran = []
        left = iter(enumerate(tables))

        def commit(out: str | os.PathLike | None) -> None:
            i, table = next(left)
            with sink(out) as f:
                if not ran:
                    directory = (os.path.dirname(out) or os.curdir) if out else None
                    parts.extend(parts_open.enter_context(tempfile.TemporaryFile(dir=directory))
                                 for _ in range(2))
                    ran.extend(_run(len(pieces), work))
                spans = [_result(ran, index, k) for index, chunk in enumerate(pieces)
                         for k, piece in enumerate(chunk) if piece[0] == i]
                f.write(table.head)
                _copy(spans, parts, f)
                f.write(table.tail)

        yield commit


def _copy(spans: Iterable[tuple[bool, int, int]], parts: Sequence, f) -> None:
    """Copy each span (in_child, start, stop) of the part files to ``f`` in
    order: into a file by ``os.copy_file_range``; into stdout's buffer, and
    from a kernel copy that raises OSError on, by reading and writing.
    """
    import codecs

    decode = codecs.getincrementaldecoder("utf-8")().decode
    target = None
    if hasattr(os, "copy_file_range") and not isinstance(f, io.StringIO):
        f.flush()
        target = f.fileno()
    for in_child, start, stop in spans:
        source = parts[in_child].fileno()
        while start < stop:
            if target is not None:
                try:
                    copied = os.copy_file_range(source, target, stop - start, start)
                except OSError:
                    copied = 0
                if copied:
                    start += copied
                    continue
                target = None  # read and write the rest
            data = os.pread(source, min(_COPY, stop - start), start)
            f.write(decode(data))
            start += len(data)


def write_table(out: str | os.PathLike | None, table: Table, least: int) -> None:
    """Write ``table`` to ``sink(out)``: the one-table job of ``writing``."""
    with writing([table], least) as commit:
        commit(out)


def listed_json(item) -> str:
    """An item as json.dumps(..., indent=2) lays it out in a list that is the
    last value of the top-level object, with the separator before it."""
    import json  # here and in listed_table: only a JSON table needs it

    return ",\n    " + json.dumps(item, indent=2).replace("\n", "\n    ")


def listed_texts(build: Callable[..., dict], formats: Sequence[str]) -> Callable[[tuple], str]:
    """``values -> listed_json(build(*values))`` from one %-template, the
    ``listed_json`` text of ``build(*formats)`` with each "%r" and "%d" value
    unquoted: %r takes a float, which json writes as its repr where finite,
    %d an int and %s a str that json writes as it is.  A text holding more
    "n" than the template, so a nan or inf (json's NaN, Infinity), goes
    through ``listed_json`` instead."""
    template = listed_json(build(*formats)).replace('"%r"', "%r").replace('"%d"', "%d")
    fixed = template.count("n")

    def texts(values: tuple) -> str:
        text = template % values
        # "in" first: it scans faster than count, and a template with no "n"
        # (a flow state's) needs no count
        if "n" in text and text.count("n") > fixed:
            text = listed_json(build(*values))
        return text

    return texts


def listed_table(n: int, head: dict, items: Callable[[int, int], Iterator[str]]) -> Table:
    """``json.dumps(head, indent=2)`` and a newline as a table, where head's
    last value is an empty list that ``items(start, stop)`` fills with the
    ``listed_json`` texts of its n items."""
    import json

    text = json.dumps(head, indent=2)

    def texts(start: int, stop: int) -> Iterator[str]:
        listed = items(start, stop)
        if start == 0:  # the first item has no separator before it
            return chain((next(listed)[1:],), listed)
        return listed

    return Table(n, texts, text[:-len("]\n}")], "\n  ]\n}\n")
