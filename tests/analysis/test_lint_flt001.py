"""FLT001 — float identity in derivation paths.

A bare ``sum()`` (or running ``+=``) over floats differs in the last
ulp depending on how samples were grouped across workers; ``math.fsum``
is the correctly-rounded true sum, so merged and serial derivations
stay byte-identical.  The rule fires only on provable float evidence —
integer tallies must stay silent.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import run_lint
from repro.analysis.lint.flt001 import Flt001FloatIdentity


def lint(tmp_path, source, module="derive.py"):
    path = tmp_path / module
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([str(tmp_path)], select=["FLT001"])


# -- firing ---------------------------------------------------------------


def test_sum_over_float_comprehension_local(tmp_path):
    result = lint(
        tmp_path,
        """
        def mean(xs):
            values = [float(x) for x in xs]
            return sum(values) / len(values)
        """,
    )
    (finding,) = result.findings
    assert finding.code == "FLT001"
    assert "math.fsum" in finding.message


def test_sum_over_float_genexp(tmp_path):
    result = lint(
        tmp_path,
        """
        def total(xs):
            return sum(float(x) for x in xs)
        """,
    )
    assert [f.code for f in result.findings] == ["FLT001"]


def test_float_accumulator_in_loop(tmp_path):
    result = lint(
        tmp_path,
        """
        def total(xs):
            acc = 0.0
            for x in xs:
                acc += float(x)
            return acc
        """,
    )
    (finding,) = result.findings
    assert "grouping-sensitive" in finding.message


def test_float_attribute_accumulator(tmp_path):
    result = lint(
        tmp_path,
        """
        class Histogram:
            def __init__(self):
                self._sum: float = 0.0

            def observe(self, value):
                self._sum += float(value)
        """,
    )
    assert [f.code for f in result.findings] == ["FLT001"]


# -- non-firing -----------------------------------------------------------


def test_integer_tallies_are_silent(tmp_path):
    result = lint(
        tmp_path,
        """
        def count(xs):
            n = sum(1 for x in xs)
            total = 0
            for x in xs:
                total += 1
            return n + total
        """,
    )
    assert result.findings == []


def test_fsum_is_the_fix(tmp_path):
    result = lint(
        tmp_path,
        """
        import math


        def mean(xs):
            values = [float(x) for x in xs]
            return math.fsum(values) / len(values)
        """,
    )
    assert result.findings == []


def test_unknown_element_type_is_silent(tmp_path):
    """No float evidence, no finding — the rule is optimistic."""
    result = lint(
        tmp_path,
        """
        def total(xs):
            return sum(xs)
        """,
    )
    assert result.findings == []


def test_dense_id_increment_is_silent(tmp_path):
    result = lint(
        tmp_path,
        """
        class Log:
            def __init__(self):
                self._next_id = 0

            def record(self):
                self._next_id += 1
        """,
    )
    assert result.findings == []


# -- scope ----------------------------------------------------------------


def test_flt001_scope_is_derivation_paths():
    """Derivation packages get both checks; sim/cdn/core the sum() one."""
    rule = Flt001FloatIdentity()
    assert rule.applies_to(None)
    assert rule.applies_to("repro.obs.metrics")
    assert rule.applies_to("repro.analysis.cdf")
    assert not rule.applies_to("repro.analysis.lint.engine")
    assert not rule.applies_to("repro.policy.zoo")
    for module in ("repro.sim.fluid", "repro.cdn.probes", "repro.core.agent"):
        assert rule.applies_to(module)


BEHAVIOUR_SOURCE = """
def mean_rtt(samples):
    rtts = [float(sample) for sample in samples]
    return sum(rtts) / len(rtts)


def total_rtt(samples):
    acc = 0.0
    for sample in samples:
        acc += float(sample)
    return acc
"""


def test_behaviour_package_sum_fires_and_running_sum_is_silent(tmp_path):
    """3.12's compensated sum() moves a behaviour path's last ulp; a
    left-to-right += loop is bit-stable on every interpreter."""
    result = lint(tmp_path, BEHAVIOUR_SOURCE, module="repro/cdn/rtts.py")
    (finding,) = result.findings
    assert "math.fsum" in finding.message
    assert finding.line == 4


def test_a_running_sum_fires_in_a_derivation_package(tmp_path):
    result = lint(tmp_path, BEHAVIOUR_SOURCE, module="repro/obs/rtts.py")
    assert [f.line for f in result.findings] == [4, 10]
