"""Output oracles for the benchmark, independent of the program under test.

Nothing here imports ``shadowosc``.  The references are built from the
oscillator model and two primitives only: repeated matrix-vector
multiplication for orbits and a scaled-and-squared exponential series for
exp(Z).  Each check gives ``None`` for a right output and a short reason
otherwise; the flow and hamiltonian checks also return what they measured.
``negative_controls`` shows that each check rejects a corrupted copy of a
real output.
"""

from __future__ import annotations

import json
import math
import re

ORBIT_TOL = 1e-8        # flow rows at t = n*tau, relative to max(1, |state|)
EXP_TOL = 1e-8          # exp(Z) against R, relative to max |R_ij|
TRACE_TOL = 1e-10       # programme trace column against the reference, relative
RIDGE_TOL = 1e-9        # |T**2 - 4| below which a tag must be degenerate
RIDGE_EXCLUSION = 1e-6  # tau this close to a known ridge is not held to the regime map


# ----------------------------------------------------------------- reference model

def _mul(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def _euler(tau):
    return (1.0 - tau * tau, tau, -tau, 1.0)


def _velocity_verlet(tau):
    h = 1.0 - tau * tau / 2.0
    return (h, tau, tau ** 3 / 4.0 - tau, h)


def _position_verlet(tau):
    h = 1.0 - tau * tau / 2.0
    return (h, tau - tau ** 3 / 4.0, -tau, h)


REFERENCE_MAPS = {
    "euler": _euler,
    "velocity-verlet": _velocity_verlet,
    "position-verlet": _position_verlet,
    "double-euler": lambda tau: _mul(_euler(tau / 2.0), _euler(tau / 2.0)),
    "vp": lambda tau: _mul(_velocity_verlet(tau / 2.0), _position_verlet(tau / 2.0)),
}


def orbit(r, q0, p0, steps):
    """States (q, p) at t = 0, tau, ..., steps*tau by repeated multiplication."""
    q, p = q0, p0
    states = [(q, p)]
    for _ in range(steps):
        q, p = r[0] * q + r[1] * p, r[2] * q + r[3] * p
        states.append((q, p))
    return states


def series_exp(z):
    """exp(z) for a 2x2 complex tuple: halve to max |z_ij| <= 1/2, sum, square back."""
    halvings = 0
    while max(abs(e) for e in z) > 0.5 and halvings < 80:
        z = tuple(e * 0.5 for e in z)
        halvings += 1
    acc = (1.0, 0.0, 0.0, 1.0)
    term = acc
    for k in range(1, 31):
        term = tuple(e / k for e in _mul(term, z))
        acc = tuple(a + t for a, t in zip(acc, term))
    for _ in range(halvings):
        acc = _mul(acc, acc)
    return acc


def regime_of(r):
    """Tags allowed for r by its trace T and gap |T**2 - 4|."""
    t = r[0] + r[3]
    if abs((t - 2.0) * (t + 2.0)) > RIDGE_TOL:
        if abs(t) < 2.0:
            return {"i-a"}
        return {"i-b"} if t > 2.0 else {"i-c"}
    return {"ii(+)", "iii-a"} if t > 0 else {"ii(-)", "iii-b"}


def _regime_map(ridges, above):
    def expected(tau):
        if any(abs(tau - ridge) <= RIDGE_EXCLUSION for ridge in ridges):
            return None
        return "i-a" if tau < ridges[-1] else above
    return expected


# Regime map of the built-in integrators as the `verify` suite asserts it
# (verify.EXPECTED_REGIMES).  None marks the neighbourhood of a ridge, and
# vp, which has no closed map.
EXPECTED_REGIMES = {
    "euler": _regime_map((2.0,), "i-c"),
    "velocity-verlet": _regime_map((2.0,), "i-c"),
    "position-verlet": _regime_map((2.0,), "i-c"),
    "double-euler": _regime_map((2.0 * math.sqrt(2.0), 4.0), "i-b"),
    "vp": lambda tau: None,
}


def state_deviation(got, want):
    scale = max(1.0, math.hypot(abs(want[0]), abs(want[1])))
    return math.hypot(abs(got[0] - want[0]), abs(got[1] - want[1])) / scale


# --------------------------------------------------------------------- flow files

CSV_HEADER = "t,q_re,q_im,p_re,p_im,H_re,H_im"
_CHUNK = 1 << 16
_DECODER = json.JSONDecoder()
_STATES_START = re.compile(r'"states"\s*:\s*\[')
_SPACE = re.compile(r"\s*")


def trajectory_rows(path, fmt):
    """(t, q, p) of each state of a trajectory file in the CSV or JSON schema,
    read a row at a time, so that no file is held in memory whole."""
    with open(path) as f:
        if fmt == "json":
            yield from _json_states(f)
            return
        if f.readline().rstrip("\n") != CSV_HEADER:
            raise ValueError("bad trajectory header")
        for line in f:
            v = [float(x) for x in line.split(",")]
            if len(v) != 7:
                raise ValueError("bad trajectory row")
            yield v[0], complex(v[1], v[2]), complex(v[3], v[4])


def _json_states(f):
    """States of a JSON trajectory, decoded one object at a time from a
    buffer that is refilled in chunks."""
    buf, pos = "", 0

    def fill():
        nonlocal buf, pos
        chunk = f.read(_CHUNK)
        if not chunk:
            raise ValueError("truncated JSON trajectory")
        buf, pos = buf[pos:] + chunk, 0

    def next_char():
        nonlocal pos
        while (pos := _SPACE.match(buf, pos).end()) == len(buf):
            fill()
        return buf[pos]

    while (found := _STATES_START.search(buf)) is None:
        fill()
    pos = found.end()
    if next_char() == "]":
        return
    while True:
        try:
            s, pos = _DECODER.raw_decode(buf, pos)
        except json.JSONDecodeError:
            fill()
            continue
        yield s["t"], complex(s["q"]["re"], s["q"]["im"]), complex(s["p"]["re"], s["p"]["im"])
        separator = next_char()
        pos += 1
        if separator == "]":
            return
        if separator != ",":
            raise ValueError(f"{separator!r} between states")
        next_char()


def expected_times(t_end, dt):
    n_full = max(0, math.ceil(t_end / dt - 1e-9))
    return n_full + 1


def scan_trajectory(path, fmt, ref, tau):
    """One pass over a trajectory file: its row count, and the largest
    deviation of its rows at t = n*tau from the reference orbit ``ref`` with
    the number of rows compared."""
    rows = matched = 0
    worst = 0.0
    for t, q, p in trajectory_rows(path, fmt):
        rows += 1
        n = round(t / tau)
        if n >= len(ref) or abs(t - n * tau) > 1e-9 * max(1.0, t):
            continue
        worst = max(worst, state_deviation((q, p), ref[n]))
        matched += 1
    return rows, worst, matched


def check_flow(op, result, files):
    """Discrete companion and every branch file against the reference orbit.

    ``files`` maps each file name in the output directory to its path.
    Returns (reason or None, worst relative deviation, branch rows)."""
    a = op.args
    if result.code != 0:
        return f"exit {result.code}", 0.0, 0
    suffix = a["format"]
    names = [f"discrete.{suffix}"] + [f"flow_m{m}.{suffix}"
                                      for m in range(a["m_min"], a["m_max"] + 1)]
    listed = [line.rsplit("/", 1)[-1] for line in result.out.split()]
    if listed != names:
        return f"listed files {listed}", 0.0, 0
    r = REFERENCE_MAPS[a["integrator"]](a["tau"])
    ref = orbit(r, a["q0"], a["p0"], int(math.floor(a["t_end"] / a["tau"] + 1e-9)) + 1)
    worst = 0.0
    branch_rows = 0
    for name in names:
        try:
            rows, dev, matched = scan_trajectory(files[name], suffix, ref, a["tau"])
        except (KeyError, ValueError, TypeError) as exc:
            return f"{name}: {exc}", worst, branch_rows
        if name.startswith("flow_"):
            if rows != expected_times(a["t_end"], a["dt"]):
                return f"{name}: {rows} rows", worst, branch_rows
            branch_rows += rows
        if matched < 2:
            return f"{name}: no rows at t = n*tau", worst, branch_rows
        worst = max(worst, dev)
        if not dev <= ORBIT_TOL:
            return f"{name}: deviation {dev:.3e}", worst, branch_rows
    return None, worst, branch_rows


# -------------------------------------------------------------------------- sweep

def sweep_taus(start, stop, step):
    n = int(round((stop - start) / step))
    return [start + k * step for k in range(n + 1)]


def check_sweep(op, result):
    """Rows complete; each tag consistent with its trace, gap and regime map."""
    if result.code != 0:
        return f"exit {result.code}"
    a = op.args
    lines = result.out.splitlines()
    if not lines or lines[0] != "tau,case,trace,criticality_gap,n_real_hamiltonians":
        return "bad sweep header"
    taus = sweep_taus(a["start"], a["stop"], a["step"])
    rows = lines[1:]
    if len(rows) != len(taus):
        return f"{len(rows)} rows for {len(taus)} grid points"
    build = REFERENCE_MAPS[a["integrator"]]
    expected = EXPECTED_REGIMES[a["integrator"]]
    for tau, line in zip(taus, rows):
        cells = line.split(",")
        if len(cells) != 5:
            return f"bad row {line!r}"
        got_tau, tag, trace, gap = float(cells[0]), cells[1], float(cells[2]), float(cells[3])
        if abs(got_tau - tau) > 1e-12 * tau:
            return f"tau {got_tau!r} where {tau!r} was due"
        r = build(tau)
        ref_trace = r[0] + r[3]
        if abs(trace - ref_trace) > TRACE_TOL * max(1.0, abs(ref_trace)):
            return f"tau={tau:.6g}: trace {trace!r} against {ref_trace!r}"
        if abs(gap - abs((trace - 2.0) * (trace + 2.0))) > 1e-12 * max(1.0, gap):
            return f"tau={tau:.6g}: gap {gap!r} does not match trace"
        if tag not in regime_of((trace, 0.0, 0.0, 0.0)):
            return f"tau={tau:.6g}: {tag} contradicts trace {trace!r}"
        want = expected(tau)
        if want is not None and tag != want:
            return f"tau={tau:.6g}: {tag} where the regime map has {want}"
    return None


# -------------------------------------------------------------------- hamiltonian

def _coefficient_rows(result, fmt):
    """[(m, case, tau, cA, cB, cC)] and the obstruction text, from either format."""
    if fmt == "json":
        payload = json.loads(result.out)
        rows = [(h["m"], h["case"], h["tau"],
                 complex(h["cA"]["re"], h["cA"]["im"]),
                 complex(h["cB"]["re"], h["cB"]["im"]),
                 complex(h["cC"]["re"], h["cC"]["im"]))
                for h in payload["hamiltonians"]]
        return rows, payload.get("obstruction")
    lines = result.out.splitlines()
    rows, obstruction = [], None
    for line in lines[1:]:
        if line.startswith("# "):
            obstruction = line[2:]
            continue
        c = line.split(",")
        rows.append((int(c[0]), c[1], float(c[2]),
                     complex(float(c[3]), float(c[4])),
                     complex(float(c[5]), float(c[6])),
                     complex(float(c[7]), float(c[8]))))
    return rows, obstruction


def exp_residual(row, r):
    """max |series_exp(Z) - R| / max |R| for Z rebuilt from the coefficients."""
    _, _, tau, c_a, c_b, c_c = row
    z11 = tau * c_c
    z = (z11, 2.0 * tau * c_a, -2.0 * tau * c_b, -z11)
    e = series_exp(z)
    scale = max(abs(x) for x in r)
    return max(abs(x - y) for x, y in zip(e, r)) / scale


def check_hamiltonian(op, result):
    """Returns (reason or None, worst relative exp residual)."""
    a = op.args
    if a["expect_exit"] != 0 or result.code != 0:
        if result.code == a["expect_exit"]:
            return None, 0.0
        return f"exit {result.code}", 0.0
    try:
        rows, obstruction = _coefficient_rows(result, a["format"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc}", 0.0
    case = a["case"]
    if case == "iii-b":
        if rows or not obstruction:
            return "iii-b must report the obstruction and no rows", 0.0
        return None, 0.0
    want_m = [0] if case == "iii-a" else list(range(a["m_min"], a["m_max"] + 1))
    if [row[0] for row in rows] != want_m:
        return f"branches {[row[0] for row in rows]}", 0.0
    worst = 0.0
    for row in rows:
        if row[1] != case:
            return f"m={row[0]}: case {row[1]} where {case} was built", worst
        res = exp_residual(row, a["r"])
        worst = max(worst, res)
        if not res <= EXP_TOL:
            return f"m={row[0]}: exp(Z) residual {res:.3e}", worst
    return None, worst


# ----------------------------------------------------------------------- classify

_TEXT_CASE = re.compile(r"^case\s+(\S+)$", re.M)


def check_classify(op, result):
    """Exit status as expected; the tag is the class the input was built in."""
    a = op.args
    if result.code != a["expect_exit"]:
        return f"exit {result.code}"
    if a["expect_exit"] != 0:
        return None
    if a["format"] == "json":
        try:
            tag = json.loads(result.out)["case"]
        except (ValueError, KeyError) as exc:
            return f"unparsable output: {exc}"
    else:
        found = _TEXT_CASE.search(result.out)
        if found is None:
            return "no case line"
        tag = found.group(1)
    if tag != a["case"]:
        return f"case {tag} where {a['case']} was built"
    return None


# ------------------------------------------------------------------------- verify

_PASSED = re.compile(r"^(\d+)/(\d+) subjects passed$")


def verify_checks(result):
    """CheckResult rows in the verify table."""
    table = result.out.split("\n\n", 1)[0].splitlines()
    return sum(1 for line in table[1:] if line.endswith((" PASS", " FAIL")))


def check_verify(op, result):
    """Exit 0 and "N/N subjects passed", with at least N check rows."""
    if result.code != 0:
        failing = [" ".join(line[:73].split()) for line in result.out.splitlines()
                   if line.endswith(" FAIL")]
        return f"exit {result.code}; failing: {', '.join(failing)}"
    lines = result.out.rstrip("\n").splitlines()
    found = _PASSED.match(lines[-1]) if lines else None
    if found is None:
        return "no summary line"
    passed, total = int(found.group(1)), int(found.group(2))
    if total == 0 or passed != total:
        return f"{passed}/{total} subjects passed"
    if verify_checks(result) < total:
        return "fewer check rows than subjects"
    return None


# -------------------------------------------------------------- negative controls

def _corrupt_number(text, row, column):
    """Shift one CSV cell by a relative and an absolute 1e-6."""
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6) + 1e-6)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def negative_controls(kinds, run_control):
    """Check a real output, then corrupted copies of it, for each oracle kind.

    ``run_control(kind)`` runs the workload's control operation for that
    kind and returns (op, result, files).  Returns a list of
    (name, passed_on_real_output, rejected_corruption) triples.
    """
    outcomes = []
    for kind in kinds:
        op, result, files = run_control(kind)
        if kind == "flow":
            real = check_flow(op, result, files)[0] is None
            name = "flow_m0.csv"
            bad = dict(files)
            bad[name] = files[name].with_name("corrupted_" + name)
            # row 67 of a dt=0.01, tau=0.66 file is t = 0.66, a discrete time
            bad[name].write_text(_corrupt_number(files[name].read_text(), 67, 1))
            outcomes.append(("flow row off the orbit", real,
                             check_flow(op, result, bad)[0] is not None))
        elif kind == "sweep":
            real = check_sweep(op, result) is None
            lines = result.out.splitlines()
            flipped = [lines[0], lines[1].replace(",i-a,", ",i-c,")] + lines[2:]
            outcomes.append(("sweep tag flipped", real,
                             check_sweep(op, result._replace(out="\n".join(flipped))) is not None))
            outcomes.append(("sweep row dropped", real,
                             check_sweep(op, result._replace(out="\n".join(lines[:-1]))) is not None))
        elif kind == "hamiltonian":
            real = check_hamiltonian(op, result)[0] is None
            bad = _corrupt_number(result.out, 1, 3)
            outcomes.append(("hamiltonian coefficient shifted", real,
                             check_hamiltonian(op, result._replace(out=bad))[0] is not None))
        elif kind == "classify":
            real = check_classify(op, result) is None
            bad = result.out.replace(f" {op.args['case']}\n", " i-b\n", 1)
            outcomes.append(("classify tag swapped", real,
                             check_classify(op, result._replace(out=bad)) is not None))
        elif kind == "verify":
            real = check_verify(op, result) is None
            lines = result.out.rstrip("\n").splitlines()
            passed, total = _PASSED.match(lines[-1]).groups()
            lines[-1] = f"{int(passed) - 1}/{total} subjects passed"
            outcomes.append(("verify summary short by one", real,
                             check_verify(op, result._replace(out="\n".join(lines))) is not None))
    return outcomes

