"""write_csv against the per-row "%.17g" formula it replaced.

Only the writer's module is imported, so these tests run from src/ and
tests/ alone.
"""

import ast
import fractions
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdq_lab import _csv


def old_csv_rows(columns) -> str:
    """The per-row formula write_csv replaced, kept as its reference."""
    return "".join(",".join("%.17g" % float(x) for x in row) + "\n"
                   for row in zip(*columns))


# nan, infinities, signed zeros, the smallest and the largest subnormal,
# and the largest finite doubles
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
               -2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308]
# a NaN with its sign bit set and a quiet NaN with another payload
OTHER_NANS = np.array([0xFFF8000000000000, 0x7FF8000000000001],
                      dtype=np.uint64).view(float)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def random_doubles(rng, lo: int, hi: int, n: int) -> np.ndarray:
    """n random doubles with binary exponents from lo to hi - 1."""
    bits = (rng.integers(0, 2 ** 64, size=n, dtype=np.uint64)
            & ~np.uint64(0x7FF << 52)) | (rng.integers(
                1023 + lo, 1023 + hi, size=n, dtype=np.uint64) << 52)
    return bits.view(float)


def scientific_table() -> list[np.ndarray]:
    """Four columns of values that "%.17g" prints in scientific notation:
    10**j and its neighbours for -101 <= j <= -4 and 16 <= j <= 100, the
    edges of two-digit exponents, decimals whose 18th significant digit is
    5, and 2**16 random doubles between 2**-333 and 2**-13 and between
    2**56 and 2**333, each also negated."""
    hand = []
    for j in [*range(-101, -3), *range(16, 101)]:
        ten = float(f"1e{j}")
        hand += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, math.inf)]
    # the double below 1e-99 prints e-100
    hand += [1e-99, np.nextafter(1e-99, 0.0), 1e-100]
    rng = np.random.default_rng(24)
    hand += [float(f"{lead}.{digits:016d}5e{k}") for lead, digits, k in zip(
        rng.integers(1, 10, 2000), rng.integers(0, 10 ** 16, 2000),
        rng.integers(-99, 100, 2000))]
    values = np.concatenate([hand, random_doubles(rng, -333, -13, 2 ** 15),
                             random_doubles(rng, 56, 333, 2 ** 15)])
    values = np.concatenate([values, -values])
    values = np.resize(values, len(values) + -len(values) % 4)
    return list(values.reshape(-1, 4).T)


def long_table(n: int) -> list[np.ndarray]:
    """A unique column, a constant one, columns of a few values each (f with
    NaN gaps, signed zeros, NaNs of other sign and payload, the two momenta
    of a well) and a unique one whose strided samples look constant."""
    k = np.arange(n)
    unique = k / 3.0 + 0.1
    fooled = unique.copy()
    fooled[::max(2, n // 64)] = 0.5
    f_gaps = np.where(k % 17 == 3, np.nan, 0.5)
    zeros = np.where(k % 3 == 0, -0.0, 0.0)
    nans = np.resize(np.concatenate([OTHER_NANS, [np.nan, 1.5, -1.5]]), n)
    momenta = np.where(k % 5 < 2, 2.5, -2.5)
    return [unique, np.full(n, 0.1), f_gaps, zeros, nans, momenta, fooled]


class TestWriteCsv:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           pools=st.lists(st.one_of(
               st.lists(st.floats(), min_size=1, max_size=8),
               st.lists(st.integers(-2**63, 2**63 - 1), min_size=1,
                        max_size=8)), min_size=1, max_size=4),
           shift=st.integers(0, 16))
    def test_bytes_match_per_row_formula(self, tmp_path_factory, data, pools,
                                         shift):
        # each column cycles through its drawn values; the first also
        # walks every edge float, and each column starts at its own offset
        pools[0] = pools[0] + EDGE_FLOATS

        # blocks of 64 values: a table ends just before, on or just after
        # a block edge, or one row into its fourth block
        step = 64 // len(pools)
        n_rows = data.draw(st.sampled_from(
            [0, 1, step - 1, step, step + 1, 3 * step + 1]))
        columns = [np.roll(np.resize(np.array(pool), n_rows), shift * k)
                   for k, pool in enumerate(pools)]
        header = [f"c{k}" for k in range(len(columns))]
        expected = (",".join(header) + "\n" + old_csv_rows(columns)).encode()
        tmp = tmp_path_factory.mktemp("csv")
        # the table goes through the numpy kernel on one CPU and, split, on
        # two
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_csv, "_CSV_BLOCK_VALUES", 64)
            mp.setattr(_csv, "_CSV_SPLIT_VALUES", 0)
            for cpus in (1, 2):
                mp.setattr(_csv, "_usable_cpus", lambda: cpus)
                _csv.write_csv(tmp / f"kernel{cpus}.csv", header, columns)
                assert (tmp / f"kernel{cpus}.csv").read_bytes() == expected

    @pytest.mark.parametrize("block_values,n_cols", [(2, 5), (None, None)],
                             ids=["patched", "wide"])
    def test_more_columns_than_block_values(self, tmp_path, monkeypatch,
                                            block_values, n_cols):
        # a row wider than a block goes out one row a block: a states.csv of
        # 2731 states has 1 + 3 * 2731 = 8194 columns, more than 2**13
        if block_values is None:
            n_cols = _csv._CSV_BLOCK_VALUES + 3
        else:
            monkeypatch.setattr(_csv, "_CSV_BLOCK_VALUES", block_values)
        n_rows = 7
        # literal and formatted columns alternate; the formatted ones walk
        # the edge floats
        columns = [np.full(n_rows, 0.25 * j) if j % 2 else
                   np.roll(np.resize(EDGE_FLOATS, n_rows), j)
                   for j in range(n_cols)]
        header = [f"c{j}" for j in range(n_cols)]
        expected = (",".join(header) + "\n" + old_csv_rows(columns)).encode()
        monkeypatch.setattr(_csv, "_CSV_SPLIT_VALUES", 0)
        for cpus in (1, 2):
            monkeypatch.setattr(_csv, "_usable_cpus", lambda: cpus)
            _csv.write_csv(tmp_path / f"kernel{cpus}.csv", header, columns)
            assert (tmp_path / f"kernel{cpus}.csv").read_bytes() == expected

    @pytest.mark.parametrize("n_rows", [1, 2, 63, 64, 65, 3007])
    def test_repeated_values_match_per_row_formula(self, tmp_path, n_rows):
        columns = long_table(n_rows)
        constant = [np.full(n_rows, -0.0), np.full(n_rows, 1e300),
                    np.full(n_rows, OTHER_NANS[0])]
        for name, table in (("mixed", columns), ("constant", constant)):
            header = [f"c{k}" for k in range(len(table))]
            path = tmp_path / f"{name}.csv"
            _csv.write_csv(path, header, table)
            expected = ",".join(header) + "\n" + old_csv_rows(table)
            assert path.read_bytes() == expected.encode()
        text = (tmp_path / "mixed.csv").read_text()
        assert {row.split(",")[3] for row in text.splitlines()[1:]} \
            == ({"0", "-0"} if n_rows > 1 else {"-0"})
        # a column of one bit pattern is a literal at every length; every
        # other column, a few-valued one too, is formatted per value
        tenth = "0.10000000000000001"
        assert [_csv._csv_literal(c) for c in columns] == {
            1: [tenth, tenth, "0.5", "-0", "nan", "2.5", "0.5"],
            2: [None, tenth, "0.5", None, None, "2.5", None],
        }.get(n_rows, [None, tenth, None, None, None, None, None])
        assert [_csv._csv_literal(c) for c in constant] \
            == ["-0", "1.0000000000000001e+300", "nan"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_kernel_matches_per_row_formula(self, tmp_path, monkeypatch,
                                            cpus):
        # a hand list of the kernel's edges, 2**18 random bit patterns (most
        # of them outside the kernel's range) and 2**16 random doubles with
        # exponents from 2**-14 to 2**56, in four columns of about 82,000
        # rows: split between two processes on two CPUs
        hand = [1e-4, np.nextafter(1e-4, 0.0), 0.0, -0.0, math.inf,
                -math.inf, math.nan, *OTHER_NANS, *EDGE_FLOATS]
        for j in range(-6, 19):
            # 10**j and its neighbours; the largest double below 10**(j+1)
            # prints 9.99...e{j} without a carry into the next power
            ten = float(f"1e{j}")
            hand += [ten, np.nextafter(ten, 0.0), np.nextafter(ten, math.inf),
                     float(f"9.99999999999999999e{j}")]
        for s in range(1, 21):
            # x = q / 2**(s+1) with q odd: x * 10**s = q * 5**s / 2 lies
            # halfway between two integers in [1e16, 1e17), where %.17g
            # rounds to the even one
            lo = -(-2 * 10 ** 16 // 5 ** s) | 1
            hand += [q / 2 ** (s + 1) for q in (lo, lo + 2, lo + 4, lo + 6)]
        hand += [float(j) for j in (1, 2, 10, 120, 99999, 2 ** 53, 10 ** 16,
                                    99999999999999984)]
        hand += [2 ** -1074 * j for j in (1, 3, 2 ** 52 - 1)]
        hand += [-x for x in hand]
        rng = np.random.default_rng(21)
        bits = rng.integers(0, 2 ** 64, size=2 ** 18, dtype=np.uint64)
        fixed = random_doubles(rng, -14, 57, 2 ** 16)
        values = np.concatenate([hand, bits.view(float), fixed])
        values = np.resize(values, len(values) + -len(values) % 4)
        columns = list(values.reshape(-1, 4).T)
        monkeypatch.setattr(_csv, "_usable_cpus", lambda: cpus)
        header = ["a", "b", "c", "d"]
        _csv.write_csv(tmp_path / "t.csv", header, columns)
        expected = ",".join(header) + "\n" + old_csv_rows(columns)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_scientific_notation_matches_per_row_formula(
            self, tmp_path, monkeypatch, forks, cpus):
        # the kernel writes every value whose exponent has two digits and
        # leaves only three-digit exponents to `%`; on two CPUs the table
        # is split
        columns = scientific_table()
        left = []
        slots = _csv._csv_slots

        def leaving(v):
            out, rest = slots(v)
            left.extend(v[rest].tolist())
            return out, rest
        monkeypatch.setattr(_csv, "_csv_slots", leaving)
        monkeypatch.setattr(_csv, "_CSV_SPLIT_VALUES", 0)
        monkeypatch.setattr(_csv, "_usable_cpus", lambda: cpus)
        header = ["a", "b", "c", "d"]
        _csv.write_csv(tmp_path / "t.csv", header, columns)
        expected = ",".join(header) + "\n" + old_csv_rows(columns)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        assert len(forks) == (cpus == 2)
        assert_no_child_left()
        # this process formats the rows of the first half, where split; of
        # those, `%` gets every three-digit exponent and a few powers of ten
        # whose D of 10**16 _rounded17 cannot tell
        rows = len(columns[0]) // cpus
        three_digits = [x for c in columns for x in c[:rows]
                        if len(("%.16e" % x).split("e")[1]) == 4]
        two_digits = [x for x in left if len(("%.16e" % x).split("e")[1]) < 4]
        assert len(left) == len(three_digits) + len(two_digits)
        assert len(two_digits) <= 20
        assert {abs(x) for x in two_digits} <= {float(f"1e{j}")
                                                for j in range(-99, 100)}
        # a block whose exponents all lie in [-6, 16]: 1e-6 is the double
        # just below 10**-6 and prints 9.9999999999999995e-07
        edges = [x for j in range(-6, 17) for x in (
            float(f"1e{j}"), np.nextafter(float(f"1e{j}"), 0.0))]
        _csv.write_csv(tmp_path / "edges.csv", ["a"], [np.array(edges)])
        assert (tmp_path / "edges.csv").read_bytes() \
            == ("a\n" + old_csv_rows([edges])).encode()
        assert "9.9999999999999995e-07\n" in old_csv_rows([edges])

    def test_near_ties_fall_back_to_percent(self, tmp_path, monkeypatch):
        # the head and tail of 10**s are the double nearest 10**s and the
        # double nearest the rest; the tail is 0 just where 10**s is a
        # double
        for s in range(-84, 117):
            exact = fractions.Fraction(10) ** s
            head, tail = _csv._POW10[s + 84], _csv._POW10_TAIL[s + 84]
            assert head == float(exact)
            assert tail == float(exact - fractions.Fraction(head))
            assert (tail == 0) == (0 <= s <= 22)
        # with every value near a half where 10**s has a tail, `%` formats
        # all of them, and the bytes stay the same
        monkeypatch.setattr(_csv, "_NEAR_HALF", 0.5)
        monkeypatch.setattr(_csv, "_usable_cpus", lambda: 1)
        columns = scientific_table()
        left = []
        slots = _csv._csv_slots

        def leaving(v):
            out, rest = slots(v)
            left.append((v, rest))
            return out, rest
        monkeypatch.setattr(_csv, "_csv_slots", leaving)
        header = ["a", "b", "c", "d"]
        _csv.write_csv(tmp_path / "t.csv", header, columns)
        expected = ",".join(header) + "\n" + old_csv_rows(columns)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        v = np.concatenate([v for v, _ in left])
        rest = np.concatenate([rest for _, rest in left])
        exponents = np.array([int(("%.16e" % x).split("e")[1]) for x in v])
        assert (rest == ((exponents < -6) | (exponents > 16))).all()

    def test_kernel_imports_nothing(self, tmp_path):
        # a forked child must not import (write_csv's docstring): in a fresh
        # interpreter the kernel's first table leaves sys.modules as it was
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from cpdq_lab import _csv\n"
            "_csv._usable_cpus = lambda: 1\n"
            "before = set(sys.modules)\n"
            "n = 2048\n"
            "cols = [np.linspace(-3, 3, n), np.full(n, 0.5),\n"
            "        np.geomspace(1e-9, 1e20, n), np.zeros(n)]\n"
            "_csv.write_csv(sys.argv[1], list('abcd'), cols)\n"
            "print(sorted(set(sys.modules) - before))\n")
        src = str(Path(_csv.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code,
                               str(tmp_path / "t.csv")],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_ragged_columns_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        with pytest.raises(ValueError, match="ragged.csv"):
            _csv.write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(2)])

    @pytest.mark.parametrize("header", [["a"], ["a", "b", "c"]])
    def test_header_length_rejected(self, tmp_path, header):
        path = tmp_path / "short.csv"
        with pytest.raises(ValueError, match="short.csv"):
            _csv.write_csv(path, header, [np.zeros(3), np.zeros(3)])
        assert not path.exists()

    @pytest.mark.parametrize("n_rows,short", [
        (3000, 1), (3000, 0), (6015, 0)],
        ids=["below_threshold", "at_threshold", "odd_half"])
    def test_split_matches_per_row_formula(self, tmp_path, monkeypatch, forks,
                                           n_rows, short):
        # the threshold moves to this table's count of formatted values, or
        # one past it; odd_half's halves of 3,007 and 3,008 rows end
        # mid-block.  Every column but long_table's literal 0.1 is
        # formatted, and the last one walks the edge floats.
        columns = long_table(n_rows) + [np.resize(EDGE_FLOATS, n_rows)]
        k = sum(_csv._csv_literal(c) is None for c in columns)
        monkeypatch.setattr(_csv, "_CSV_SPLIT_VALUES", k * n_rows + short)
        header = [f"c{j}" for j in range(len(columns))]
        expected = ",".join(header) + "\n" + old_csv_rows(columns)
        for cpus in (1, 2):
            monkeypatch.setattr(_csv, "_usable_cpus", lambda: cpus)
            _csv.write_csv(tmp_path / f"cpus{cpus}.csv", header, columns)
            assert (tmp_path / f"cpus{cpus}.csv").read_bytes() \
                == expected.encode()
        assert len(forks) == (short == 0)
        assert_no_child_left()
        assert sorted(os.listdir(tmp_path)) == ["cpus1.csv", "cpus2.csv"]


def test_writer_imports_only_the_standard_library_and_numpy():
    # a forked child runs only this module's code (write_csv's docstring),
    # so the module reaches no package code and no module beyond these
    tree = ast.parse(Path(_csv.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "os", "shutil", "tempfile", "pathlib",
                        "numpy"}
