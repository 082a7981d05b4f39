"""nhjc.csvtext against Python's '%.17g', cell by cell.

The formatter certifies a cell when its double-double scaled value is more
than 1e-6 from a half-integer and lays out the digits itself; every other
finite cell goes through '%.17g'. The checks compare bytes with '%.17g' and
require each cell that goes through '%.17g' to need it: outside
1e-280 <= |x| <= 1e280, or within 1e-6 of a tie by exact arithmetic.
"""

import inspect
import math
import random
import types
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhjc import csvtext


def _expected(values) -> bytes:
    return "".join("%.17g\n" % v for v in values).encode()


def _render(module, values) -> tuple[bytes, list[float]]:
    """The lines module writes for the values, and the values it hands to
    '%.17g'."""
    handed = []
    fallback = module._fallback

    def counted(cells):
        handed.extend(cells.tolist())
        return fallback(cells)

    module._fallback = counted
    try:
        return module.csv_lines([module.float_cells(np.array(values, dtype=float))]), handed
    finally:
        module._fallback = fallback


def _needs_fallback(value: float) -> bool:
    """Outside the certified range, or within 1e-6 of a 17-digit tie (exact)."""
    size = abs(value)
    if not 1e-280 <= size <= 1e280:
        return True
    scaled = Fraction(size) * Fraction(10) ** (16 - Decimal(size).adjusted())
    return abs(scaled - math.floor(scaled) - Fraction(1, 2)) <= Fraction(1, 10 ** 6)


def _faults(module, values, every=False) -> list:
    """The values written other than '%.17g' writes them, and those handed
    to '%.17g' without need; with every, also those that need it and were
    not handed to it."""
    text, handed = _render(module, values)
    want = _expected(values)
    wrong = [] if text == want else [v for v, a, b in zip(values, text.splitlines(), want.splitlines()) if a != b]
    needless = [v for v in handed if not (math.isfinite(v) and v != 0.0 and _needs_fallback(v))]
    missed = [v for v in values if every and math.isfinite(v) and v != 0.0 and _needs_fallback(v) and v not in handed]
    return wrong + (["line count"] if text.count(b"\n") != len(values) else []) + needless + missed


def _random_bits(count: int, seed: int) -> list[float]:
    return np.random.default_rng(seed).integers(0, 2 ** 64, count, dtype=np.uint64).view(np.float64).tolist()


POWERS = [value for k in range(-300, 300)
          for value in (float(f"1e{k}"), math.nextafter(float(f"1e{k}"), math.inf),
                        math.nextafter(float(f"1e{k}"), -math.inf))]


def _ties() -> list[float]:
    """Doubles j / 2^m whose exact decimal has 18 significant digits, the
    last a 5: each is a 17-digit tie. Then near-ties m 2^q, whose scaled
    value m 5^s 2^(q+s) (s = 16 - e) lies r 2^(q+s) from a half-integer:
    m = (2^(b-1) + r) / 5^s mod 2^b, b = -(q+s) bits. With their negatives."""
    rng = random.Random(20240901)
    ties = [2.0 ** -25, 3 * 2.0 ** -25]
    for m in range(2, 26):
        low, high = -(-10 ** 17 // 5 ** m), min(10 ** 18 // 5 ** m, 2 ** 53)
        ties += [(j | 1) / 2 ** m for j in (rng.randrange(low, high) for _ in range(8)) if (j | 1) < high]
    for q in range(-61, -120, -1):
        e = Decimal(2.0 ** (q + 52)).adjusted()  # of m 2^q for m near 2^52
        bits = -(q + 16 - e)
        for r in (1, -1, 2, -2, 3, -3, 5, -5):
            m = (2 ** (bits - 1) + r) * pow(5 ** (16 - e), -1, 2 ** bits) % 2 ** bits
            m += -(-(2 ** 52 - m) // 2 ** bits) * 2 ** bits if m < 2 ** 52 else 0
            if m < 2 ** 53 and Decimal(m * 2.0 ** q).adjusted() == e:
                ties.append(m * 2.0 ** q)
    return [sign * v for v in ties for sign in (1.0, -1.0)]


TIES = _ties()


def test_the_ties_are_ties_and_go_through_the_fallback():
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"  # half to even: ...125 -> ...12
    assert "%.17g" % (3 * 2.0 ** -25) == "8.9406967163085938e-08"  # ...375 -> ...38
    exact = [v for v in TIES if len(Decimal(v).as_tuple().digits) == 18]
    assert len(exact) > 200 and len(TIES) - len(exact) > 200 and all(map(_needs_fallback, TIES))
    text, handed = _render(csvtext, TIES)
    assert text == _expected(TIES) and handed == TIES


def test_powers_of_ten_and_their_neighbours_match():
    # 1e15 - ulp = 999999999999999.875 is a tie; the others in range need no fallback
    assert _faults(csvtext, POWERS, every=True) == []
    assert sum(map(_needs_fallback, POWERS)) == len([v for v in POWERS if not 1e-280 <= v <= 1e280]) + 1


def test_random_bit_doubles_match_the_cell_formatter():
    values = _random_bits(200_000, seed=20240901)
    for start in range(0, len(values), 10_000):
        assert _faults(csvtext, values[start:start + 10_000]) == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310])
@example([1e-281, 1e-280, 1e280, 1e281, 1.7976931348623157e308, 1e16, 1e17, 99999999999999999.0, 1e-4, 1e-5])
@example([0.1, 123.0, -1.5e-7, 9.9999999999999995e-5, 9.999999999999999e16, 123456789012345680.0])
def test_any_doubles_match_the_cell_formatter(values):
    assert _faults(csvtext, values) == []


def test_cells_are_padded_rows_and_text_cells_encode():
    cells = csvtext.float_cells([1.5, -2.0, math.nan])
    assert cells.dtype == np.uint8 and cells.shape[0] == 3 and cells.shape[1] <= csvtext.WIDTH
    assert [bytes(row[row != 0]) for row in cells] == [b"1.5", b"-2", b"nan"]
    assert csvtext.csv_lines([csvtext.text_cells(["a b", "", "é"]), csvtext.float_cells([1.0, 2.0, 3.0])]) \
        == "a b,1\n,2\né,3\n".encode()


def _mutant(old: str, new: str):
    """A copy of nhjc.csvtext whose source has old replaced by new."""
    source = inspect.getsource(csvtext)
    assert source.count(old) == 1
    module = types.ModuleType("csvtext_mutant")
    exec(compile(source.replace(old, new), "csvtext_mutant", "exec"), module.__dict__)
    return module


def test_the_checks_catch_a_formatter_without_the_half_margin():
    # exact ties come out right from rint on the exact product (p is even),
    # near-ties below 1e-6 do not
    mutant = _mutant("(np.abs(t - nearest) < 0.5 - _MARGIN) & ", "")
    assert {2.2422607587866907e-07, -4.9102966142601843e-08} <= set(_faults(mutant, TIES))


def test_the_checks_catch_a_formatter_without_the_log10_correction():
    mutant = _mutant("    e -= a < ceilings[e - _P_MIN]", "")
    # fl(1e-280) lies below 10^-280, where log10 rounds to -280
    assert 1e-280 in _faults(mutant, POWERS)


@pytest.mark.parametrize("size", [1, 2, 5, 300])
def test_the_cells_do_not_depend_on_the_batch(size):
    values = np.array(_random_bits(size, seed=size))
    whole = csvtext.csv_lines([csvtext.float_cells(values)])
    assert whole == b"".join(csvtext.csv_lines([csvtext.float_cells(values[i:i + 1])]) for i in range(size))
