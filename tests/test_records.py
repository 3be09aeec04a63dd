"""The frozen value classes built on exact_linalg.Record: the contract of a
frozen record (constructor, __post_init__ checks, ==, hash, repr, frozen
attributes, pickle), and an import of the whole package that loads neither
dataclasses nor the modules it pulls in."""

import os
import pickle
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import supercoh
from supercoh import brauer, corpus, dsv
from supercoh.exact_linalg import AbelianGroupPresentation as G
from supercoh.exact_linalg import IntMatrix
from supercoh.simplicial import Cochain, CohomologyClass
from supercoh.stable2type import Stable2TypeData
from supercoh.superline import SuperLine

F5 = dsv.Field(5)
RP2 = corpus.complex_by_name("rp2")
ELEMENT = brauer.random_element(RP2, "ko", Random(1))
NOT_A_COCYCLE = Cochain(RP2, 1, 2, (1,) + (0,) * (RP2.simplex_count(1) - 1))
# (d0 | d1) = (1 | 0) on one even and one odd line
ARROW = dsv.DSV(F5, 1, 1, ((1,),), ((0,),))

# class: (field names, good field values, bad field values, the ValueError
# message of __post_init__ on the bad values)
CASES = {
    IntMatrix: (("rows", "cols", "entries"), (1, 2, (3, 4)), (2, 2, (1, 2, 3)), "entry count does not match rows*cols"),
    G: (("free_rank", "invariant_factors"), (1, (2, 4)), (0, (2, 3)), "invariant factors must form a divisibility chain"),
    CohomologyClass: (("cochain",), (Cochain.zero(RP2, 1, 2),), (NOT_A_COCYCLE,), "representative is not a cocycle"),
    brauer.BrauerElement: (
        ("variant", "a", "b", "c"),
        ("ko", ELEMENT.a, ELEMENT.b, ELEMENT.c),
        ("kx", ELEMENT.a, ELEMENT.b, ELEMENT.c),
        "unknown variant 'kx'; expected 'ku' or 'ko'",
    ),
    dsv.Field: (("char",), (5,), (4,), "field characteristic must be 0 or a prime"),
    dsv.DSV: (
        ("field", "dim0", "dim1", "d0", "d1"),
        (F5, 1, 1, ((0,),), ((2,),)),
        # d1 d0 = 0 but d0 d1 != 0
        (F5, 1, 2, ((1,), (0,)), ((0, 1),)),
        "d0 d1 != 0",
    ),
    dsv.DSVMap: (
        ("source", "target", "f0", "f1"),
        (ARROW, ARROW, ((3,),), ((3,),)),
        (ARROW, ARROW, ((1,),), ((0,),)),
        "map does not commute with d0",
    ),
    dsv.BoundedChainComplex: (
        ("field", "lowest", "dims", "boundaries"),
        (F5, 0, (1, 1), (((2,),),)),
        (F5, 0, (1, 1, 1), (((1,),), ((1,),))),
        "boundary composite is nonzero",
    ),
    Stable2TypeData: (
        ("pi0", "pi1", "q"),
        (G(0, (2,)), G(0, (2,)), ((3,),)),
        (G(0, (2,)), G(0, (2,)), ()),
        "q needs 1 columns for pi0 (x) Z/2",
    ),
    SuperLine: (
        ("flavor", "base", "parity", "line_class"),
        ("real", RP2, (3,), CohomologyClass(Cochain.zero(RP2, 1, 2))),
        ("quaternionic", RP2, (3,), CohomologyClass(Cochain.zero(RP2, 1, 2))),
        "unknown flavor 'quaternionic'",
    ),
}

# as printed by the same constructions when these were frozen dataclasses
POINT = "SimplicialComplex(1 vertices, dim 0, 1 maximal simplices)"
REPRS = [
    (G(1, (2,)), "AbelianGroupPresentation(free_rank=1, invariant_factors=(2,))"),
    (dsv.Field(5), "Field(char=5)"),
    (
        CohomologyClass(Cochain(corpus.point(), 0, 2, (3,))),
        f"CohomologyClass(cochain=Cochain(complex={POINT}, degree=0, modulus=2, values=(1,)))",
    ),
    (dsv.DSV(*CASES[dsv.DSV][1]), "DSV(field=Field(char=5), dim0=1, dim1=1, d0=((0,),), d1=((2,),))"),
    (
        Stable2TypeData(*CASES[Stable2TypeData][1]),
        "Stable2TypeData(pi0=AbelianGroupPresentation(free_rank=0, invariant_factors=(2,)), "
        "pi1=AbelianGroupPresentation(free_rank=0, invariant_factors=(2,)), q=((1,),))",
    ),
]


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__qualname__)
def test_value_class_contract(cls):
    names, good, bad, message = CASES[cls]
    a = cls(*good)
    kwargs = dict(zip(names, good))
    for other in (cls(**kwargs), cls(good[0], **dict(zip(names[1:], good[1:])))):
        assert other == a and not other != a and other is not a
        assert hash(other) == hash(a) and repr(other) == repr(a)
        assert all(getattr(other, n) == getattr(a, n) for n in names)
    for args, kw in ((bad, {}), ((), dict(zip(names, bad)))):
        with pytest.raises(ValueError) as err:
            cls(*args, **kw)
        assert str(err.value) == message
    with pytest.raises(TypeError):
        cls(*good[:-1])
    with pytest.raises(TypeError):
        cls(*good, **{names[0]: good[0]})
    # another class, and the bare field values, are never equal
    stranger = next(c for c in CASES if c is not cls)
    assert a != stranger(*CASES[stranger][1]) and a != good and a != list(good)
    assert repr(a).startswith(f"{cls.__qualname__}({names[0]}=")
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, names[0])
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a) and repr(back) == repr(a) and back is not a


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__qualname__ for v, _ in REPRS])
def test_repr_is_that_of_the_dataclass(value, text):
    assert repr(value) == text


def test_cochain_memo_starts_empty_outside_the_fields():
    c = Cochain(RP2, 1, 2, (1,) * RP2.simplex_count(1))
    assert c._delta is None and c._cocycle is None
    c.is_cocycle()
    assert c._cocycle is not None
    assert c == Cochain(complex=RP2, degree=1, modulus=2, values=c.values)
    assert "_delta" not in repr(c)


def test_import_loads_no_dataclasses():
    """supercoh.cli imports every module of the package, verify and
    superline included; dataclasses would bring inspect, ast and dis."""
    code = "import sys, supercoh.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(supercoh.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
