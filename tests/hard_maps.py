"""The maps where a floating-point answer is hardest, in one table.

Each entry is a map, with the CLI flags that build it (``HardMap.flags``),
its exact tag and what ``hamiltonian --m-min 0 --m-max 0`` prints for it.

The exact tag is read off the stored entries with ``fractions``: the sign of
d**2 = ((r1 - r4)/2)**2 + r2*r3 and, where d**2 >= 0, the sign of
T = r1 + r4 (``exact_tag``).  The outcome is the exit status and one of
three things: the case of the branch-0 row, "iii-b" for the printed
obstruction, or the error text.  Where it is given, the row's cC is held as
printed.  Where the CLI's case is not the exact tag, the answer rests on the
tolerance band of ``classify``, which misfires there; those rows record the
defect, not the wanted answer.
"""

from fractions import Fraction
from typing import NamedTuple

from shadowosc.integrators import custom, make


class HardMap(NamedTuple):
    name: str
    integrator: str
    tau: str
    entries: str | None        # r1,r2,r3,r4 of a custom map
    exact_tag: str
    exit: int
    outcome: str               # branch-0 case, "iii-b" (the obstruction) or the error text
    c_pq: str | None = None    # branch-0 cC as printed, where checked

    @property
    def flags(self) -> list[str]:
        entries = [f"--r={self.entries}"] if self.entries else []
        return ["--integrator", self.integrator, "--tau", self.tau, *entries]

    def stored(self):
        """The ``TransitionMatrix`` the flags build."""
        if self.entries:
            return custom(*(float(x) for x in self.entries.split(",")), float(self.tau))
        return make(self.integrator, float(self.tau))


HARD_MAPS = (
    # T = 2e-5 and exact d**2 = -1.0000003, eigenvalues near +-i; tagged iii-a,
    # whose Z = K misses R by 1.6e4
    HardMap("near quarter turn, entries 1e5", "custom", "0.5", "1e5,1e5,-99999.99999,-1e5",
            "i-a", 1, "error: exp(Z) reproduces custom only to 1.585e+04"),
    # T = 0 and d**2 = -1 exactly; the band, which grows with the entries, reads 0
    HardMap("exact quarter turn, entries 3e4", "custom", "1", "30000,1,-900000001,-30000",
            "i-a", 0, "iii-b"),
    # exact d**2 = 4.0e-9
    HardMap("euler 1e-9 past its ridge", "euler", "2.000000001", None, "i-c", 0, "iii-b"),
    # exact d**2 = +-8.0e-10
    HardMap("double-euler 1e-10 past tau = 4", "double-euler", "4.0000000001", None,
            "i-b", 0, "iii-a"),
    HardMap("double-euler 1e-10 short of tau = 4", "double-euler", "3.9999999999", None,
            "i-a", 0, "iii-a"),
    # the bench's query-mix seed 16211 draws this as a Jordan map with
    # eigenvalue -1; projected onto det = 1, its exact d**2 is -9.7e-17
    HardMap("query-mix seed 16211's projected Jordan draw", "custom", "0.3333895796875729",
            "-0.9999591429070532,-5.045283798289431,3.3086385440431513e-10,-1.0000408570929467",
            "i-a", 0, "i-a"),
    # k11**2 overflows; cC = log(1e160)
    HardMap("diagonal 1e160", "custom", "1", "1e160,0,0,1e-160", "i-b", 0, "i-b",
            "368.41361487904737"),
    # k11**2 is finite, k11**2 + r2*r3 = 1.8e308 is not; T = 2.69e154
    HardMap("band 1.8e308 past the largest double", "custom", "1",
            "1.5e154,1.5e154,1.19e154,1.19e154", "i-b", 0, "i-b", "40.978501899463204"),
    # tau**2 rounds away in 1 - tau**2 and tau lies within 16 eps of 0, where
    # a read K is the identity's rounding; cC = -tau/2
    HardMap("euler at tau = 1e-15", "euler", "1e-15", None, "i-a", 0, "i-a",
            "-5.0000000000000004e-16"),
    # tau**2 = 1e-400 underflows, so d**2 is read on K / 2**e; k11 = -tau**2/2
    # underflows too, and the printed cC is 0, not -tau/2
    HardMap("euler at tau = 1e-200", "euler", "1e-200", None, "i-a", 0, "i-a"),
    # cC, the first-order term of the modified Hamiltonian, is -tau/4 and
    # about -tau**3/64; (r1 - r4)/2 of the stored entries reads 0 for both
    HardMap("double-euler at tau = 1e-9", "double-euler", "1e-9", None, "i-a", 0, "i-a",
            "-2.5000000000000002e-10"),
    HardMap("vp at tau = 1e-4", "vp", "1e-4", None, "i-a", 0, "i-a",
            "-1.5625000021158855e-14"),
)


def exact_tag(r) -> str:
    """The tag of the stored entries, read in exact rationals."""
    r1, r2, r3, r4 = (Fraction(x) for x in (r.r1, r.r2, r.r3, r.r4))
    k11 = (r1 - r4) / 2
    if k11 == r2 == r3 == 0:
        return "ii(+)" if r1 > 0 else "ii(-)"
    d_sq = k11 * k11 + r2 * r3
    if d_sq < 0:
        return "i-a"
    if d_sq == 0:
        return "iii-a" if r1 + r4 > 0 else "iii-b"
    return "i-b" if r1 + r4 > 0 else "i-c"
