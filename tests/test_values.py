"""The value types keep the behaviour of the frozen dataclasses they replace.

``Mat2C`` and the ten record types derive from ``algebra.Value``.  Each keeps
its dataclass constructor signature (field order, keywords, defaults), repr,
equality, hash and immutability; pickling and copying go through the
constructor, so a value is validated again.  Importing the CLI loads neither
``dataclasses`` nor ``inspect``.
"""

import copy
import math
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from shadowosc.algebra import Mat2C, Value
from shadowosc.classifier import CaseTag, EigenStructure
from shadowosc.errors import BadParams, InvalidTau, NonFinite, NotSymplectic, OutOfRange
from shadowosc.flow import PhaseState, TrajectorySource
from shadowosc.integrators import TransitionMatrix, euler
from shadowosc.shadow import CaseIIParams, Generator, GeneratorFamily, ShadowHamiltonian
from shadowosc.verify import CheckResult, VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"

_EIGEN = EigenStructure(complex(0.6, 0.8), math.atan2(0.8, 0.6), 1.0, False, 0.8j)
_CHECK = CheckResult("exp(Z)=R (series oracle)", 1e-12, 1e-9, True)

# (class, every field in the dataclass order with a valid value, the defaults)
CASES = [
    (Mat2C, {"e11": 1 + 0j, "e12": 2j, "e21": -0.5 + 0j, "e22": 3 + 0j}, {}),
    (EigenStructure, {"eigenvalue": -1 + 0j, "angle": math.pi, "modulus": 1.0,
                      "degenerate": True, "d": 0j, "jordan_basis": Mat2C(1, 0, 0, 1)},
     {"jordan_basis": None}),
    # k11 is None, read off the entries, unless a builder gives it
    (TransitionMatrix, {"r1": 0.875, "r2": 0.5, "r3": -0.46875, "r4": 0.875, "tau": 0.5,
                        "label": "velocity-verlet", "k11": 0.0}, {"k11": None}),
    (Generator, {"matrix": Mat2C(0, 1, -1, 0), "branch": 1, "tau": 0.5, "case": CaseTag.IA,
                 "log": 1j}, {"log": None}),
    (ShadowHamiltonian, {"c_pp": 0.25 + 0j, "c_qq": 0.5j, "c_pq": -1 + 0j, "tau": 0.5,
                         "branch": -1, "case": CaseTag.IC, "real_valued": False,
                         "rate": 1 + 2j}, {"rate": None}),
    (CaseIIParams, {"c1": 0.0, "c2": 1.0, "c3": 1.0}, {}),
    (GeneratorFamily, {"case": CaseTag.IIIB, "eigen": _EIGEN, "generators": (),
                       "obstruction": "no traceless logarithm"}, {"obstruction": None}),
    (PhaseState, {"q": 1j, "p": 2.0, "t": 0.5}, {}),
    (TrajectorySource, {"label": "flow<i-a>", "tau": 0.5, "case": CaseTag.IA, "branch": 2},
     {"case": None, "branch": None}),
    (CheckResult, {"name": "traceless Z", "residual": 1e-12, "tolerance": 1e-10,
                   "passed": True}, {}),
    (VerificationReport, {"subject": "vp regime", "checks": (_CHECK,)}, {}),
]
IDS = [cls.__name__ for cls, _, _ in CASES]
every_value = pytest.mark.parametrize("cls, fields, defaults", CASES, ids=IDS)


@every_value
def test_fields_are_the_slots_in_constructor_order(cls, fields, defaults):
    assert issubclass(cls, Value)
    assert cls.__slots__ == tuple(fields)
    assert not hasattr(cls(*fields.values()), "__dict__")


@every_value
def test_positional_and_keyword_construction(cls, fields, defaults):
    positional = cls(*fields.values())
    keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(positional, name) == value
        assert getattr(keyword, name) == value
    assert positional == keyword


@every_value
def test_defaults(cls, fields, defaults):
    required = {name: value for name, value in fields.items() if name not in defaults}
    value = cls(**required)
    for name, default in defaults.items():
        assert getattr(value, name) == default
    with pytest.raises(TypeError):
        cls(*list(required.values())[:-1])


@every_value
def test_equal_and_hash_equal_only_within_one_class(cls, fields, defaults):
    value, twin = cls(*fields.values()), cls(*fields.values())
    assert value == twin and not value != twin
    assert hash(value) == hash(twin) == hash(tuple(fields.values()))
    as_tuple = tuple(fields.values())
    assert value != as_tuple and value.__eq__(as_tuple) is NotImplemented


def test_same_fields_in_another_class_are_not_equal():
    assert PhaseState(0.0, 1.0, 1.0) != CaseIIParams(0.0, 1.0, 1.0)
    matrix = Mat2C(0, 1, -1, 0)
    assert Generator(matrix, 1, 0.5, CaseTag.IA) != Generator(matrix, 2, 0.5, CaseTag.IA)
    assert Generator(matrix, 1, 0.5, CaseTag.IA, 1j) != Generator(matrix, 1, 0.5, CaseTag.IA)


def test_a_built_in_k11_is_part_of_its_value():
    # euler(1e-9) stores r1 = 1.0, whose (r1 - r4)/2 reads 0; its k11 is -tau**2/2
    r = euler(1e-9)
    assert r.k11 == -5e-19 and r.traceless() == (-5e-19, 1e-9, -1e-9, 5e-19)
    read = TransitionMatrix(r.r1, r.r2, r.r3, r.r4, r.tau, r.label)
    assert read.k11 is None and read.traceless() == (0.0, 1e-9, -1e-9, 0.0)
    assert read != r and hash(read) != hash(r)
    assert pickle.loads(pickle.dumps(r)) == r and copy.deepcopy(r).k11 == r.k11


@pytest.mark.parametrize("value, text", [
    (TransitionMatrix(0.875, 0.5, -0.46875, 0.875, 0.5, "velocity-verlet"),
     "TransitionMatrix(r1=0.875, r2=0.5, r3=-0.46875, r4=0.875, tau=0.5, "
     "label='velocity-verlet', k11=None)"),
    (Generator(Mat2C(0, 1, -1, 0), 1, 0.5, CaseTag.IA),
     "Generator(matrix=Mat2C(e11=0j, e12=(1+0j), e21=(-1+0j), e22=0j), branch=1, tau=0.5, "
     "case=<CaseTag.IA: 'i-a'>, log=None)"),
    (ShadowHamiltonian(0.25 + 0j, 0.5j, -1.0 + 0j, 0.5, -1, CaseTag.IC, False),
     "ShadowHamiltonian(c_pp=(0.25+0j), c_qq=0.5j, c_pq=(-1+0j), tau=0.5, branch=-1, "
     "case=<CaseTag.IC: 'i-c'>, real_valued=False, rate=None)"),
], ids=["TransitionMatrix", "Generator", "ShadowHamiltonian"])
def test_repr_is_the_dataclass_repr(value, text):
    # the literal reprs the frozen dataclasses gave
    assert repr(value) == text


@every_value
def test_pickle_and_copy_round_trips(cls, fields, defaults):
    value = cls(*fields.values())
    twins = [pickle.loads(pickle.dumps(value, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins + [copy.copy(value), copy.deepcopy(value)]:
        assert type(twin) is cls and twin == value


@pytest.mark.parametrize("value, field, bad, error", [
    (TransitionMatrix(1.0, 0.5, 0.0, 1.0, 0.5, "x"), "r1", math.nan, NonFinite),
    (TransitionMatrix(1.0, 0.5, 0.0, 1.0, 0.5, "x"), "r1", 2.0, NotSymplectic),
    (TransitionMatrix(1.0, 0.5, 0.0, 1.0, 0.5, "x"), "k11", 0.25, ValueError),
    (ShadowHamiltonian(0.5, 0.5, 0.0, 1.0, 0, CaseTag.IA, True), "c_pp", math.inf, OutOfRange),
    (CaseIIParams(0.0, 1.0, 1.0), "c1", 1.0, BadParams),
], ids=["non-finite", "not-symplectic", "k11-off-the-entries", "out-of-range", "bad-params"])
def test_round_trips_validate_again(value, field, bad, error):
    # write the slot past the constructor, as no caller of the package can
    type(value).__dict__[field].__set__(value, bad)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(value))
    with pytest.raises(error):
        copy.deepcopy(value)


@every_value
def test_assigning_or_deleting_raises_frozen_instance_error(cls, fields, defaults):
    value = cls(*fields.values())
    for name in list(fields) + ["other"]:
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0.0)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(*fields.values())


@pytest.mark.parametrize("build, error, message", [
    (lambda: TransitionMatrix(math.nan, 0.0, 0.0, 1.0, 1.0, "x"), NonFinite,
     "x: entries and tau must be finite, got r = (nan, 0.0, 0.0, 1.0), tau = 1.0"),
    (lambda: TransitionMatrix(1.0, 0.0, 0.0, 1.0, math.inf, "x"), NonFinite,
     "x: entries and tau must be finite, got r = (1.0, 0.0, 0.0, 1.0), tau = inf"),
    # a non-positive tau is reported before a wrong determinant
    (lambda: TransitionMatrix(2.0, 0.0, 0.0, 2.0, 0.0, "x"), InvalidTau,
     "tau must be positive, got 0.0"),
    (lambda: TransitionMatrix(2.0, 0.0, 0.0, 2.0, 1.0, "x"), NotSymplectic,
     "x: determinant differs from 1 by 3.000e+00"),
    (lambda: TransitionMatrix(1.0, 0.5, 0.0, 1.0, 0.5, "x", 0.25), ValueError,
     "x: k11 = 0.25 is not (r1 - r4)/2 = 0.0 to rounding"),
    (lambda: ShadowHamiltonian(math.inf, 0j, 0j, 0.5, 2, CaseTag.IA, True), OutOfRange,
     "branch m=2 Hamiltonian at tau=0.5 has non-finite coefficients cA = inf, cB = 0j, "
     "cC = 0j"),
    (lambda: CaseIIParams(1.0, 1.0, 1.0), BadParams, "c1**2 + c2*c3 = 1 violated by 1.000e+00"),
    (lambda: Mat2C(None, 0, 0, 0), TypeError, None),
], ids=["non-finite-entry", "non-finite-tau", "invalid-tau", "not-symplectic",
        "k11-off-the-entries", "out-of-range", "bad-params", "mat2c-not-a-number"])
def test_constructors_reject_bad_input(build, error, message):
    with pytest.raises(error) as raised:
        build()
    if message is not None:
        assert str(raised.value) == message


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import shadowosc.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_cli_query_loads_only_what_it_runs():
    """A csv ``classify`` in a fresh interpreter imports none of the modules
    that only JSON output, an ``--out`` file, a split job or ``verify`` need."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import shadowosc.cli as cli; "
            "cli.build_parser(); "
            "code = cli.main(['classify', '--integrator', 'euler', '--tau', '1', "
            "'--format', 'csv']); "
            "print(code, sorted({'json', 'pathlib', 'random', 'pickle', 'tempfile', "
            "'shadowosc.verify'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("integrator      euler\n")
    assert done.stdout.splitlines()[-1] == "0 []"
