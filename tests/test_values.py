"""The value types shared across modules keep the semantics they would
have as dataclasses: equality by class and fields, a hash only on the
frozen ones, a ``repr`` naming the class and its fields, fields that
cannot be reassigned on the frozen ones, and a pickle round-trip (a
parallel sweep sends cases and verdicts between processes)."""

import pickle

import pytest

from tancone.brsk import NEG, NotchedBitableau, Row
from tancone.indexsets import AdmissiblePair, admissible_pairs
from tancone.patch import GeneratorSet
from tancone.verify import CaseSpec, Verdict

_ROW = Row(p=(3,), q=(2,), sign=NEG)
_PAIR = admissible_pairs(2)[0]
_CASE = CaseSpec(d=2, alpha=(1, 2), beta=(1, 3), gamma=(3, 4), field="Fp:3", max_degree=2)

# (class, fields by name, frozen); a GeneratorSet's matrix is stood in for
# by None, since a patch matrix compares by identity
SAMPLES = [
    (Row, dict(p=(3,), q=(2,), sign=NEG), True),
    (NotchedBitableau, dict(rows=(_ROW, _ROW)), True),
    (AdmissiblePair, dict(top=_PAIR.top, bot=_PAIR.bot, rep=_PAIR.rep, d=2), True),
    (
        CaseSpec,
        dict(d=2, alpha=(1, 2), beta=(1, 3), gamma=(3, 4), field="Fp:3", max_degree=2),
        True,
    ),
    (
        GeneratorSet,
        dict(alpha=(1, 2), gamma=(3, 4), matrix=None, pairs=[_PAIR], polys=[]),
        False,
    ),
    (
        Verdict,
        dict(
            case=_CASE,
            groebner_equal=True,
            counts_agree=False,
            initial_ideal=["X(3,2)"],
            good_initial=["X(3,2)"],
            per_degree={0: {"outside_init": 1}},
            runtime_ms=7,
        ),
        False,
    ),
]


@pytest.mark.parametrize("cls, fields, frozen", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_value_class_semantics(cls, fields, frozen):
    value = cls(**fields)
    twin = cls(*fields.values())
    assert value == twin and not value != twin
    assert all(getattr(value, name) == v for name, v in fields.items())
    if frozen:
        assert hash(value) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(value)

    others = [tuple(fields.values())]
    others += [c(**f) for c, f, _ in SAMPLES if c is not cls]
    for other in others:
        assert value != other and value.__eq__(other) is NotImplemented

    shown = ", ".join(f"{name}={v!r}" for name, v in fields.items())
    assert repr(value) == f"{cls.__name__}({shown})"

    for name in fields:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert value == twin

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(value, protocol))
        assert type(copy) is cls and copy == value
