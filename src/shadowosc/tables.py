"""Jobs cut into chunks that claiming processes run: the one place that forks.

Three callers cut their work into chunks whose results depend only on their
own index: the flow files of one ``flow`` call, or one flow file alone (a
flow sample is closed-form in its own t), a ``sweep`` grid (a row depends
only on its own tau_k) and ``verify``'s suite (one subject per chunk,
through ``results``).  Where ``process_count`` allows two processes, a pipe
holds one byte per chunk index (at most 255) before one child is forked, and
both processes claim the next index with a one-byte ``os.read``, which
cannot split, until the pipe is empty; so the process on the faster CPU runs
more chunks.  Each process is pinned to a CPU of its own for the job: left
to the scheduler, a young child often shares its parent's CPU, and the
split is then slower than one pass.  The child sends each chunk's results,
pickled, down a report pipe as it finishes the chunk.

``writing`` runs every table of a job with one fork: the rows of all the
tables, numbered in order across them, are cut into chunks, and a chunk may
straddle two tables.  A chunk writes its rows to its process's anonymous
part file, so memory stays independent of the tables' length, and reports
its span there in each table it covers.  The caller commits the tables one
at a time, in order: this process claims chunks until every chunk of the
table has been claimed, collects the table's spans and copies them to the
sink, by ``os.copy_file_range`` into a file: the bytes of a single pass.

A chunk that raises ends its process's claims and empties the pipe; every
lower chunk has been claimed by then and runs to its end.  The error of the
lowest failing chunk, that of a single pass, is raised by the commit of the
table it fails in, so every earlier table is whole.  On any error or
interrupt the children are killed and reaped and the part files removed.
``sink`` is where a table goes: its ``--out`` file, written under a
``.part`` name and renamed when complete, or stdout, once the table is whole.
"""

from __future__ import annotations

import io
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from functools import partial
from itertools import accumulate, chain, islice, pairwise

_CHUNK = 1024  # rows per write
# Most chunks in a job: one byte in the claim pipe holds a chunk's index.
_MAX_CHUNKS = 255
# Most processes: two is the count measured, on a 2-core host.  The affinity
# mask that _usable_cpus reads does not narrow for a cgroup CPU quota, so a
# larger count could fork many children onto one or two CPUs.
_MAX_PROCESSES = 2
_COPY = 1 << 20  # bytes per read when a span is copied by reading


class Table:
    """n rows between a head and a tail: ``texts(start, stop)`` gives the
    texts of rows start <= k < stop in order, each depending on its k alone.
    (A plain class: a NamedTuple costs about 0.2 ms more to import.)"""

    __slots__ = ("n", "texts", "head", "tail")

    def __init__(self, n: int, texts: Callable[[int, int], Iterator[str]], head: str,
                 tail: str):
        self.n, self.texts, self.head, self.tail = n, texts, head, tail


@contextmanager
def _replacing(path: str | os.PathLike):
    """Text file on a temporary name beside ``path``, renamed to ``path`` when
    the block completes and removed if it raises, so ``path`` is never partial."""
    from pathlib import Path  # here and in write_table: only an --out file needs it

    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with open(part, "w") as f:
            yield f
        os.replace(part, path)
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


def process_count(n: int, least: int) -> int:
    """Processes for a job of n items, each running at least ``least`` of them.

    min(_MAX_PROCESSES, usable CPUs, n // least), at least one, where
    ``os.fork`` exists, the caller runs no second thread (a forked child gets
    only the forking thread, and could inherit a lock another one holds) and
    SIGCHLD is not ignored (the system would reap the children, and waitpid
    fail); else one.
    """
    count = 1
    threading = sys.modules.get("threading")
    if hasattr(os, "fork") and (threading is None or threading.active_count() == 1):
        count = max(1, min(_MAX_PROCESSES, _usable_cpus(), n // least))
    if count > 1:
        import signal  # here and below: only a split job needs it

        if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN:
            count = 1
    return count


def _chunk_ranges(n: int, least: int) -> list[tuple[int, int]]:
    """Contiguous index ranges [start, stop) covering n rows in order, one per
    chunk: at most _MAX_CHUNKS of them, of at least ``least // 8`` rows, so
    that a process running its least rows claims about eight chunks."""
    count = min(_MAX_CHUNKS, max(1, n // max(1, least // 8)))
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


# A chunk as run: its index, the results its work yielded, and its error, if
# the work raised.
Event = tuple[int, list, "BaseException | None"]
# A child: its pid and the read end of its report pipe.
Child = tuple[int, io.BufferedReader]


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


def _fork_claimer(claims: int, work: Callable[[int], Iterable], cpu: int | None,
                  children: list[Child]) -> None:
    """Fork a child that claims chunks on ``cpu`` alone (None: any of the
    caller's), and append it to ``children``.

    SIGINT stays blocked from before the fork until the child is listed, so an
    interrupt cannot leave a child the caller does not know of; the child
    keeps it blocked, and the caller kills it if the interrupt stops the job.
    """
    import signal

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})  # the caller's
    try:
        children.append(_forked(claims, work, cpu))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _forked(claims: int, work: Callable[[int], Iterable], cpu: int | None) -> Child:
    """The child's pid and the read end of its report pipe.

    The child sends each ``_claim`` event, pickled, down the pipe as its chunk
    ends.  It ends only through ``os._exit``, so it never flushes a buffer it
    inherited (the caller's stdout, say); a child that cannot send an event
    exits with status 1 and sends no more.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            import pickle  # here and in _Claims: only a split job needs it

            with open(write, "wb") as pipe:
                for event in _claim(claims, work):
                    pipe.write(pickle.dumps(event))
                    pipe.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _stop(children: list[Child]) -> None:
    """Kill and reap every child not reaped yet; waitpid raises for a reaped
    pid, which is then never signalled, since it may have been reused."""
    import signal

    for pid, pipe in children:
        pipe.close()
        try:
            reaped = os.waitpid(pid, os.WNOHANG)[0]
        except ChildProcessError:
            continue
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class _Claims:
    """A running job's chunks as this process sees them: the chunks it claims
    itself, when asked to, and the events its children report."""

    def __init__(self, count: int, mine: Iterator[Event], children: list[Child]):
        self._count, self._mine, self._children = count, mine, children
        self._claimed = -1  # every chunk up to this index has been claimed
        self._reported = {pid: -1 for pid, _ in children}  # each child's last index
        self._events: dict[int, tuple[list, BaseException | None]] = {}

    def claim_through(self, index: int) -> None:
        """Run this process's claims until every chunk up to ``index`` has been
        claimed; a chunk's error that is no ``Exception`` (an interrupt, say)
        is raised at once, any other when its result is asked for."""
        while self._claimed < index:
            event = next(self._mine, None)
            if event is None:  # the pipe is empty
                self._claimed = self._count
                return
            self._claimed, done, error = event
            self._events[self._claimed] = done, error
            if error is not None and not isinstance(error, Exception):
                raise error

    def result(self, index: int, k: int):
        """Chunk ``index``'s k-th result, or the chunk's error if it raised
        before yielding it.  Asked for in order, every lower chunk's result
        having been read, the error raised is that of the lowest failing
        chunk: the error of a single pass."""
        self.claim_through(index)
        while index not in self._events:
            self._receive(index)
        done, error = self._events[index]
        if k < len(done):
            return done[k]
        raise error

    def _receive(self, index: int) -> None:
        """Read the next event of a child that may hold chunk ``index``, which
        this process did not claim; one that ends with no such event reaped."""
        import pickle

        holders = [child for child in self._children if self._reported[child[0]] < index]
        if not holders:
            raise ChildProcessError(f"no forked worker reported chunk {index}")
        pid, pipe = child = holders[0]
        try:
            index_reported, done, error = pickle.load(pipe)
        except EOFError:  # the child has ended: one that failed fails the job
            self._children.remove(child)
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise ChildProcessError(f"a forked worker sent no report "
                                        f"(exit status {code})") from None
            return
        self._reported[pid] = index_reported
        self._events[index_reported] = done, error


@contextmanager
def _claimed(count: int, processes: int,
             work: Callable[[int, int], Iterable]) -> Iterator[_Claims]:
    """The chunks 0 <= index < count (at most _MAX_CHUNKS) of a job that
    ``processes`` processes claim, ``work(slot, index)`` yielding a chunk's
    results in the process numbered slot: 0 for this one.  A child's results
    reach this process pickled.

    The children are reaped when the block completes, so that their exits
    overlap its work.  On any error they are killed and reaped.
    """
    claims, fill = os.pipe()
    try:
        os.write(fill, bytes(range(count)))  # fewer bytes than any pipe holds
    finally:
        os.close(fill)
    children: list[Child] = []
    # Each process on a CPU of its own, where the mask can be set: left to the
    # scheduler, a child often shares its parent's CPU for the whole job.
    mask = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    cpus = sorted(mask) if mask else [None]
    try:
        for slot in range(1, processes):
            _fork_claimer(claims, partial(work, slot), cpus[slot % len(cpus)], children)
        if mask:
            os.sched_setaffinity(0, {cpus[0]})
        yield _Claims(count, _claim(claims, partial(work, 0)), children)
        for pid, pipe in children:
            pipe.close()  # a child still sending then fails, and cannot block
            os.waitpid(pid, 0)
    except BaseException:
        _stop(children)
        raise
    finally:
        if mask:
            os.sched_setaffinity(0, mask)
        os.close(claims)


def results(calls: Sequence[Callable[[], object]]) -> list:
    """``[call() for call in calls]``, one call per chunk (at most _MAX_CHUNKS),
    computed by claiming processes where ``process_count`` allows.

    A child's results travel pickled, as the package's errors do; the error
    raised is that of the lowest failing call, the one a single pass raises.
    """
    processes = process_count(len(calls), 1)
    if processes == 1:
        return [call() for call in calls]
    with _claimed(len(calls), processes, lambda slot, index: (calls[index](),)) as job:
        job.claim_through(len(calls) - 1)
        return [job.result(index, 0) for index in range(len(calls))]


@contextmanager
def writing(tables: Sequence[Table], least: int,
            directory: str | os.PathLike | None) -> Iterator[Callable[[str | os.PathLike | None], None]]:
    """Yield ``commit(out)``, which writes the next of ``tables``, whole, to
    ``sink(out)``; a process runs at least ``least`` of the tables' rows.

    Split, the processes claim the chunks of all the tables' rows, and each
    writes its chunks to its own anonymous part file in ``directory`` (None:
    the system's temporary directory).  A commit claims chunks here until
    every chunk of its table has been claimed, then copies the table's spans
    to the sink in order.  A chunk's error is raised by the commit of the
    table it fails in, so the tables before it are whole.
    """
    processes = process_count(sum(table.n for table in tables), least)
    if processes == 1:
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
    # each chunk's pieces, (table, start, stop) in order, and each table's
    # pieces, (chunk, piece)
    pieces = [[(i, max(a, lo) - lo, min(b, hi) - lo)
               for i, (lo, hi) in enumerate(pairwise(starts)) if lo < b and a < hi]
              for a, b in _chunk_ranges(starts[-1], least)]
    held: list[list[tuple[int, int]]] = [[] for _ in tables]
    for index, chunk in enumerate(pieces):
        for k, (i, _, _) in enumerate(chunk):
            held[i].append((index, k))
    with ExitStack() as parts_open:
        parts = [parts_open.enter_context(tempfile.TemporaryFile(dir=directory))
                 for _ in range(processes)]

        def work(slot: int, index: int) -> Iterator[tuple[int, int, int]]:
            part = parts[slot]
            for i, start, stop in pieces[index]:
                begin = part.tell()
                for block in _blocks(tables[i].texts(start, stop)):
                    part.write(block.encode())
                part.flush()
                yield slot, begin, part.tell()

        with _claimed(len(pieces), processes, work) as job:
            left = iter(enumerate(tables))

            def commit(out: str | os.PathLike | None) -> None:
                i, table = next(left)
                # claim through the table's last chunk first: asked for one
                # by one, a chunk the child runs would leave this process idle
                job.claim_through(held[i][-1][0] if held[i] else -1)
                spans = [job.result(index, k) for index, k in held[i]]
                with sink(out) as f:
                    f.write(table.head)
                    _copy(spans, parts, f)
                    f.write(table.tail)

            yield commit


def _copy(spans: Iterable[tuple[int, int, int]], parts: Sequence, f) -> None:
    """Copy each span (slot, start, stop) of the part files to ``f`` in order:
    into a file by ``os.copy_file_range``; into stdout's buffer, and from a
    kernel copy that raises OSError on, by reading and writing.

    Offsets are explicit, so that a child still writing to its part file
    keeps its file position.
    """
    import codecs

    decode = codecs.getincrementaldecoder("utf-8")().decode
    target = None
    if hasattr(os, "copy_file_range") and not isinstance(f, io.StringIO):
        f.flush()
        target = f.fileno()
    for slot, start, stop in spans:
        source = parts[slot].fileno()
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
    """Write ``table`` to ``sink(out)``: the one-table job of ``writing``, its
    part files beside ``out``, or for stdout in the temporary directory."""
    directory = None
    if out:
        from pathlib import Path

        directory = Path(out).parent
    with writing([table], least, directory) as commit:
        commit(out)


def listed_json(item) -> str:
    """An item as json.dumps(..., indent=2) lays it out in a list that is the
    last value of the top-level object, with the separator before it."""
    import json  # here and in listed_table: only a JSON table needs it

    return ",\n    " + json.dumps(item, indent=2).replace("\n", "\n    ")


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
