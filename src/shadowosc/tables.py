"""Jobs cut into chunks that claiming processes run: the one place that forks.

Three callers cut their work into chunks whose results depend only on their
own index: a flow file (a flow sample is closed-form in its own t), a
``sweep`` grid (a row depends only on its own tau_k) and ``verify``'s suite
(one subject per chunk, through ``results``).  Where ``process_count``
allows two processes, a pipe holds one byte per chunk index (at most 255)
before one child is forked, and both processes claim the next index with a
one-byte ``os.read``, which cannot split, until the pipe is empty; so the
process on the faster CPU runs more chunks.  Each process is pinned to a
CPU of its own for the job: left to the scheduler, a young child often
shares its parent's CPU, and the split is then slower than one pass.  The
child sends its chunks' results, pickled, down a report pipe.  A table's
chunk writes its rows to its process's anonymous part file, so memory stays
independent of the table's length, and the spans are copied to the sink in
index order: the bytes of a single pass.

A chunk that raises ends its process's claims and empties the pipe; every
lower chunk has been claimed by then and runs to its end, and the lowest
failing chunk's error, that of a single pass, is raised.  On any error or
interrupt the children are killed and reaped and the part files removed.
``sink`` is where a table goes: its ``--out`` file, written under a
``.part`` name and renamed when complete, or stdout, once the table is whole.
"""

from __future__ import annotations

import io
import json
import os
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from pathlib import Path

_CHUNK = 1024  # rows per write
# Most chunks in a job: one byte in the claim pipe holds a chunk's index.
_MAX_CHUNKS = 255
# Most processes: two is the count measured, on a 2-core host.  The affinity
# mask that _usable_cpus reads does not narrow for a cgroup CPU quota, so a
# larger count could fork many children onto one or two CPUs.
_MAX_PROCESSES = 2
_COPY = 1 << 20  # bytes per read when a span is copied to the sink


@contextmanager
def _replacing(path: str | Path):
    """Text file on a temporary name beside ``path``, renamed to ``path`` when
    the block completes and removed if it raises, so ``path`` is never partial."""
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
def sink(out: str | Path | None):
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


# What a process reports: the results of the chunks it ran, by index, and its
# failing chunk's index and error, if one failed.
Report = tuple[dict, "tuple[int, BaseException] | None"]
# A child: its pid and the read end of its report pipe.
Child = tuple[int, io.BufferedReader]


def _claim(claims: int, work: Callable[[int], object]) -> Report:
    """Claim chunk indices from the pipe ``claims`` until it is empty, running
    ``work(index)`` for each; a chunk that raises ends the claims and empties
    the pipe, so that no process claims a later chunk."""
    done = {}
    while claimed := os.read(claims, 1):
        index = claimed[0]
        try:
            done[index] = work(index)
        except BaseException as exc:  # reported to the caller, which raises it
            while os.read(claims, _MAX_CHUNKS):
                pass
            return done, (index, exc)
    return done, None


def _fork_claimer(claims: int, work: Callable[[int], object], cpu: int | None,
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


def _forked(claims: int, work: Callable[[int], object], cpu: int | None) -> Child:
    """The child's pid and the read end of its report pipe.

    The child sends its pickled ``_claim`` report down the pipe.  It ends only
    through ``os._exit``, so it never flushes a buffer it inherited (the
    caller's stdout, say); a child that cannot send its report exits with
    status 1 and sends nothing.
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
            report = _claim(claims, work)
            import pickle  # here and in _report: only a split job needs it

            sent = pickle.dumps(report)
            with open(write, "wb") as pipe:
                pipe.write(sent)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


def _report(pid: int, pipe: io.BufferedReader) -> Report:
    """A child's report, read to the end of its pipe; a child that sent none
    fails, and is reaped to read its exit status."""
    with pipe:
        sent = pipe.read()
    if not sent:
        status = os.waitpid(pid, 0)[1]
        raise ChildProcessError(f"a forked worker sent no report (exit status "
                                f"{os.waitstatus_to_exitcode(status)})")
    import pickle

    return pickle.loads(sent)


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


@contextmanager
def _claimed(count: int, processes: int, work: Callable[[int, int], object]) -> Iterator[list]:
    """``[work(slot, index) for index in range(count)]`` (count at most
    _MAX_CHUNKS), where ``processes`` processes claim the indices and slot
    numbers the process that ran the chunk: 0 for this one.  A child's
    results reach this process pickled.

    The children are reaped when the block completes, so that their exits
    overlap its work.  On any error they are killed and reaped.  A chunk's
    error is raised only once every lower chunk has run, and the lowest
    failing chunk's is raised; one that is no ``Exception`` (an interrupt,
    say) in this process is raised at once.
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
        done, failure = _claim(claims, partial(work, 0))
        if failure is not None and not isinstance(failure[1], Exception):
            raise failure[1]
        failures = [failure] if failure else []
        for pid, pipe in children:
            theirs, failure = _report(pid, pipe)
            done.update(theirs)
            failures += [failure] if failure else []
        if failures:
            raise min(failures, key=itemgetter(0))[1]
        yield [done[index] for index in range(count)]
        for pid, _ in children:
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
    with _claimed(len(calls), processes, lambda slot, index: calls[index]()) as done:
        return done


def write_ranges(out: str | Path | None, n: int, least: int,
                 texts: Callable[[int, int], Iterator[str]], head: str, tail: str) -> None:
    """Write head, ``texts(start, stop)`` for consecutive ranges of the n rows
    in order, and tail, to ``sink(out)``; a process runs at least ``least`` rows.

    Each row must depend only on its own index, so that the bytes are those
    of a single pass.  Split, the rows are cut into chunks that the processes
    claim.  Each process writes its chunks to its own anonymous part file,
    beside ``out`` or in the system's temporary directory for stdout, and
    each chunk's span there is copied to the sink in order.
    """
    processes = process_count(n, least)
    with sink(out) as f:
        f.write(head)
        if processes == 1:
            for block in _blocks(texts(0, n)):
                f.write(block)
        else:
            _write_claimed(f, n, least, processes, texts, Path(out).parent if out else None)
        f.write(tail)


def _write_claimed(f, n: int, least: int, processes: int,
                   texts: Callable[[int, int], Iterator[str]], directory: Path | None) -> None:
    """Write ``texts(start, stop)`` for the chunks of the n rows to ``f`` in
    order, the chunks claimed by ``processes`` processes, each of which writes
    to its own part file in ``directory``."""
    import codecs
    import tempfile

    ranges = _chunk_ranges(n, least)
    parts = []
    try:
        for _ in range(processes):
            parts.append(tempfile.TemporaryFile(dir=directory))

        def work(slot: int, index: int) -> tuple[int, int, int]:
            part = parts[slot]
            start = part.tell()
            for block in _blocks(texts(*ranges[index])):
                part.write(block.encode())
            part.flush()
            return slot, start, part.tell()

        decode = codecs.getincrementaldecoder("utf-8")().decode
        with _claimed(len(ranges), processes, work) as spans:
            for slot, start, stop in spans:
                part = parts[slot]
                part.seek(start)
                for offset in range(start, stop, _COPY):
                    f.write(decode(part.read(min(_COPY, stop - offset))))
    finally:
        for part in parts:
            part.close()


def listed_json(item) -> str:
    """An item as json.dumps(..., indent=2) lays it out in a list that is the
    last value of the top-level object, with the separator before it."""
    return ",\n    " + json.dumps(item, indent=2).replace("\n", "\n    ")


def write_listed(out: str | Path | None, n: int, least: int, head: dict,
                 items: Callable[[int, int], Iterator[str]]) -> None:
    """Write ``json.dumps(head, indent=2)`` and a newline through
    ``write_ranges``, where head's last value is an empty list that
    ``items(start, stop)`` fills with ``listed_json`` texts."""
    text = json.dumps(head, indent=2)

    def texts(start: int, stop: int) -> Iterator[str]:
        listed = items(start, stop)
        if start == 0:  # the first item has no separator before it
            return chain((next(listed)[1:],), listed)
        return listed

    write_ranges(out, n, least, texts, text[:-len("]\n}")], "\n  ]\n}\n")
