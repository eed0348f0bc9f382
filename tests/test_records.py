"""The value types: record semantics, and an import that stays light."""

import os
import subprocess
import sys

import pytest

import qdissect
from qdissect import theta
from qdissect.products import Factor, ProductSpec
from qdissect.series import QSeries
from qdissect.verification import Report


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(qdissect.__file__))
    code = ("import sys; before = set(sys.modules); import qdissect, qdissect.cli; "
            "print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=src)
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout
    assert "'qdissect.cli'" in added
    assert "'dataclasses'" not in added
    assert "'inspect'" not in added


class TestEquality:
    def test_equal_fields_give_equal_objects_and_hashes(self):
        a = ProductSpec((Factor(1, 1, -4), Factor(2, 2, 3)), scalar=2)
        b = ProductSpec((Factor(1, 1, -4), Factor(2, 2, 3)), scalar=2)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != ProductSpec((Factor(1, 1, -4), Factor(2, 2, 3)))

    def test_node_types_with_the_same_fields_differ(self):
        x = (theta.Const(1), theta.Ref("w", 3))
        assert theta.Sum(x) != theta.Mul(x)
        assert theta.Sum(x) == theta.Sum(x)
        assert theta.Shift(1, theta.Const(2)) != theta.Sub(1, theta.Const(2))

    def test_a_record_is_not_equal_to_its_field_tuple(self):
        assert Factor(1, 1) != (1, 1, 1, 0)
        assert QSeries((1, 2)) != (1, 2)


class TestMutability:
    def test_frozen_record_refuses_assignment_and_deletion(self):
        f = Factor(1, 1, -4)
        with pytest.raises(AttributeError):
            f.exponent = 2
        with pytest.raises(AttributeError):
            del f.q_step
        with pytest.raises(AttributeError):
            QSeries((1,)).coeffs = (2,)
        assert f == Factor(1, 1, -4)

    def test_report_is_mutable_and_unhashable(self):
        report = Report("x", "congruence", "s", "skipped")
        report.status = "pass"
        assert report.status == "pass"
        assert report == Report("x", "congruence", "s", "pass")
        with pytest.raises(TypeError):
            hash(report)
        with pytest.raises(TypeError):
            hash(theta.IdentityReport("id", "pass", 10))


class TestConstruction:
    def test_keywords_and_defaults(self):
        assert Factor(q_step=2, q_offset=1) == Factor(1, 2, 1, 0)
        assert Factor(1, 1, z_exp=-1) == Factor(1, 1, 1, -1)
        spec = ProductSpec([Factor(1, 1)])
        assert spec.factors == (Factor(1, 1),)  # __post_init__ still runs
        assert (spec.scalar, spec.q_shift, spec.z_shift) == (1, 0, 0)
        assert QSeries([3, 9], modulus=7) == QSeries((3, 2), 7)

    @pytest.mark.parametrize("build", [
        lambda: Factor(1),
        lambda: Factor(),
        lambda: Factor(1, 1, 1, 0, 5),
        lambda: Factor(1, 1, q_step=2),
        lambda: Factor(1, 1, power=2),
        lambda: Report("x", "congruence", "s"),
        lambda: QSeries(),
    ], ids=["missing", "none", "extra", "repeated", "unknown", "report", "qseries"])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()


def test_repr_keeps_the_dataclass_text():
    assert repr(Factor(1, 1, -4)) == "Factor(q_offset=1, q_step=1, exponent=-4, z_exp=0)"
    assert repr(theta.Ref("w", 3)) == "Ref(name='w', param=3)"
    assert repr(QSeries((1, 2), 5)) == "QSeries(coeffs=(1, 2), modulus=5)"
