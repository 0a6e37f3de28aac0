"""File format tests: round-trips, token parsing, malformed-input errors."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmig import (
    AttributeMetrics,
    Dataset,
    EstimatorConfig,
    FileFormatError,
    MetricReport,
    SampleColumn,
    SyntheticSpec,
    evaluate,
    gen_discrete_joint,
    gen_gaussian_pair,
    gen_trajectory,
    read_dataset,
    read_report,
    read_series,
    read_truth,
    write_dataset,
    write_report,
    write_series,
    write_truth,
)
from dmig.dataio import _BLOCK_ROWS, _parse_rows, format_float, parse_float
from dmig.synthetic import discrete_truth, gaussian_truth
from conftest import tie_noise
from test_golden import DATASETS as GOLDEN_DATASETS


def small_dataset(rng: np.random.Generator, *, n=40, d=3, m=2) -> Dataset:
    latents = rng.standard_normal((n, d))
    attrs = []
    for i in range(m):
        if rng.random() < 0.5:
            attrs.append(SampleColumn(rng.integers(0, 3, n).astype(float), kind="discrete"))
        else:
            attrs.append(SampleColumn(rng.standard_normal(n), kind="continuous"))
    perm = rng.permutation(d)[:m]
    names = tuple(f"f{i}" for i in range(m))
    return Dataset(
        latents=latents,
        attributes=tuple(attrs),
        regularized_map=tuple(int(j) for j in perm),
        names=names,
    )


def small_report(rng: np.random.Generator) -> MetricReport:
    spec = SyntheticSpec(
        family="discrete_joint",
        n=200,
        seed=int(rng.integers(0, 1000)),
        pmf=((0.4, 0.1), (0.1, 0.4)),
    )
    ds, _ = gen_discrete_joint(spec)
    with tie_noise(seed=int(rng.integers(0, 1000))):
        return evaluate(ds, EstimatorConfig())


class TestFloatTokens:
    def test_round_trip_preserves_bits(self):
        for v in (0.1, -1.5e-300, 2.0 ** 53 + 1, 3.141592653589793):
            assert parse_float(format_float(v), "x") == v

    def test_non_finite_tokens(self):
        assert format_float(float("inf")) == "+inf"
        assert format_float(float("-inf")) == "-inf"
        assert format_float(float("nan")) == "nan"
        assert parse_float("+inf", "x") == float("inf")
        assert math.isnan(parse_float("nan", "x"))

    def test_alternate_spellings_rejected(self):
        for tok in ("inf", "Infinity", "-Infinity", "nan!", "two"):
            with pytest.raises(FileFormatError):
                parse_float(tok, "x")


class TestDatasetRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = small_dataset(np.random.default_rng(0))
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        assert read_dataset(p).digest() == ds.digest()

    def test_map_and_names_survive(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = Dataset(
            latents=rng.standard_normal((30, 5)),
            attributes=(SampleColumn(rng.standard_normal(30), kind="continuous"),),
            regularized_map=(4,),
            names=("_bright",),
        )
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        text = p.read_text()
        assert "#map a_bright -> z5" in text
        back = read_dataset(p)
        assert back.regularized_map == (4,)
        assert back.names == ("_bright",)

    def test_kind_line_optional_on_read(self, tmp_path):
        ds = small_dataset(np.random.default_rng(2))
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        lines = [l for l in p.read_text().splitlines() if l != "#kind dataset"]
        p.write_text("\n".join(lines) + "\n")
        assert read_dataset(p).digest() == ds.digest()

    def test_unsafe_name_rejected_on_write(self, tmp_path):
        rng = np.random.default_rng(3)
        # str.splitlines() breaks a line at each of the last four characters.
        for name in ("a,b", "x\ny", "x\x1cy", "x\x85y", "x\u2028y"):
            ds = Dataset(
                latents=rng.standard_normal((10, 2)),
                attributes=(SampleColumn(rng.standard_normal(10), kind="continuous"),),
                names=(name,),
            )
            with pytest.raises(FileFormatError, match="unusable attribute name"):
                write_dataset(ds, tmp_path / "d.csv")
            assert not (tmp_path / "d.csv").exists()


def edge_values_dataset() -> Dataset:
    """Values whose shortest repr is easy to get wrong."""
    lat = np.array([[-0.0, 1.0], [5e-324, 2.0], [0.1 + 0.2, 3.0], [1e308, -1e-300]])
    return Dataset(
        latents=lat,
        attributes=(SampleColumn(np.array([0.0, -0.0, 1e308, 5e-324]), kind="continuous"),),
    )


def multi_block_dataset() -> Dataset:
    """Two full blocks of rows and a partial one, with values that repeat."""
    rng = np.random.default_rng(18)
    n = 2 * _BLOCK_ROWS + 300
    signed_zeros = rng.choice([0.0, -0.0, -3.0, 1e16], n)
    codes = rng.permutation(n) - 1000.0  # more distinct codes than a block has rows
    ds = Dataset(
        latents=np.column_stack([signed_zeros, rng.standard_normal(n)]),
        attributes=(
            SampleColumn(codes, kind="discrete"),
            SampleColumn(rng.integers(0, 4, n).astype(float), kind="continuous"),
        ),
        regularized_map=(1, 0),
    )
    assert ds.latent_kinds == ("discrete", "continuous")
    return ds


class TestDatasetBytes:
    @pytest.mark.parametrize(
        "build",
        [*GOLDEN_DATASETS.values(), edge_values_dataset, multi_block_dataset],
        ids=lambda f: f.__name__,
    )
    def test_body_equals_per_cell_format_float(self, tmp_path, build):
        ds = build()
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        # Format, kind, one map line per attribute, then the column header.
        head = p.read_text().split("\n")[: ds.m + 3]
        columns = [*ds.latents.T, *(col.values for col in ds.attributes)]
        body = [",".join(format_float(c[r]) for c in columns) for r in range(ds.n)]
        assert p.read_bytes() == ("\n".join(head + body) + "\n").encode()

    @pytest.mark.parametrize(
        "build, bound_mib",
        [
            # The shapes of the benchmark's disc_codes and cont_pair inputs.
            # Writing the whole body at once peaked at 9.9 and 7.0 MiB; a
            # block at a time peaks at 0.21 and 0.57 MiB, and the bounds
            # are 1.5 times those.
            (
                lambda: gen_discrete_joint(
                    SyntheticSpec(
                        family="discrete_joint", n=100_000, seed=7,
                        pmf=((0.22, 0.06, 0.05), (0.06, 0.22, 0.05), (0.05, 0.05, 0.24)),
                        d_total=2,
                    )
                )[0],
                0.31,
            ),
            (
                lambda: gen_trajectory(
                    SyntheticSpec(
                        family="trajectory", n=25_000, seed=7, rho=0.8,
                        noise_schedule=(0.3,), d_total=2,
                    )
                )[0][1],
                0.86,
            ),
        ],
        ids=["discrete_codes", "trajectory_epoch"],
    )
    def test_small_memory(self, tmp_path, build, bound_mib):
        ds = build()
        tracemalloc.start()
        try:
            write_dataset(ds, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


class TestDatasetErrors:
    def write_and_break(self, tmp_path, mutate):
        ds = small_dataset(np.random.default_rng(4), n=6, d=2, m=1)
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        lines = p.read_text().splitlines()
        mutate(lines)
        p.write_text("\n".join(lines) + "\n")
        return p

    def test_missing_format_line(self, tmp_path):
        p = self.write_and_break(tmp_path, lambda ls: ls.__setitem__(0, "#format v2"))
        with pytest.raises(FileFormatError, match="format"):
            read_dataset(p)

    def test_wrong_kind(self, tmp_path):
        p = self.write_and_break(tmp_path, lambda ls: ls.__setitem__(1, "#kind report"))
        with pytest.raises(FileFormatError, match="kind"):
            read_dataset(p)

    def test_non_finite_body_rejected_with_line_number(self, tmp_path):
        def mutate(ls):
            row = ls[-1].split(",")
            row[0] = "nan"
            ls[-1] = ",".join(row)

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError, match=r":\d+:"):
            read_dataset(p)

    @pytest.mark.parametrize(
        "cell",
        # numpy's loadtxt reads the last four as 1.0: it strips any space
        # around a number, and by default "#" starts a comment.
        ["abc", "nan", "+inf", "1e400", "\u0661", "\uff11", "\x1f1", "\xa01", "1\u3000", "1.0#x"],
    )
    def test_bad_cell_names_its_line(self, tmp_path, cell):
        def mutate(ls):
            assert ls[3].startswith("z1,") and len(ls) == 10
            row = ls[6].split(",")
            row[1] = cell
            ls[6] = ",".join(row)

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError) as err:
            read_dataset(p)
        assert str(err.value).startswith(f"{p}:7: ")

    def test_underscore_cell_names_its_line(self, tmp_path):
        # float("1_0") is 10.0; the reader refuses the cell instead.
        def mutate(ls):
            row = ls[6].split(",")
            row[1] = "1_0"
            ls[6] = ",".join(row)

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError, match="1_0") as err:
            read_dataset(p)
        assert str(err.value).startswith(f"{p}:7: ")

    def test_whitespace_around_cells_and_header_underscores_accepted(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = Dataset(
            latents=rng.standard_normal((6, 2)),
            attributes=(SampleColumn(rng.standard_normal(6), kind="continuous"),),
            names=("my_factor",),
        )
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        lines = p.read_text().splitlines()
        lines[6] = ",".join(f" {c}\t" for c in lines[6].split(","))
        p.write_text("\n".join(lines) + "\n")
        back = read_dataset(p)
        assert back.names == ("my_factor",)
        assert np.array_equal(back.latents, ds.latents)
        assert back.digest() == ds.digest()

    @pytest.mark.parametrize(
        "pattern, replacement, match",
        [
            (r"#map (\S+) -> ", r"#map \1 => ", r"d\.csv:3: "),
            (r"(#map [^\n]*\n)", r"\1\1", r"d\.csv:4: "),
            (r"(?s)\nz1,.*", "\n", r"d\.csv:3: missing header row"),
            (r"(?m)^z1,z2,", "z1,z1,", r"d\.csv:4: "),
            (r"(?m)^z1,z2,", "z1,y2,", r"d\.csv:4: "),
            (r"(?m)^z1,z2,", "", r"d\.csv:4: "),
            (r"(?m)^(z1,z2,)(\S+)$", r"\1\2,\2", r"d\.csv:4: "),
        ],
    )
    def test_malformed_head_raises(self, tmp_path, pattern, replacement, match):
        ds = small_dataset(np.random.default_rng(4), n=6, d=2, m=1)
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        text, n = re.subn(pattern, replacement, p.read_text(), count=1)
        assert n == 1
        p.write_text(text)
        with pytest.raises(FileFormatError, match=match):
            read_dataset(p)

    def test_ragged_row(self, tmp_path):
        p = self.write_and_break(tmp_path, lambda ls: ls.__setitem__(-1, ls[-1] + ",0.0"))
        with pytest.raises(FileFormatError, match=r":\d+:"):
            read_dataset(p)

    def test_gapped_latent_columns(self, tmp_path):
        def mutate(ls):
            i = next(k for k, l in enumerate(ls) if l.startswith("z1"))
            ls[i] = ls[i].replace("z2", "z3")

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError):
            read_dataset(p)

    def test_bad_attribute_kind_token(self, tmp_path):
        def mutate(ls):
            i = next(k for k, l in enumerate(ls) if l.startswith("z1"))
            ls[i] = ls[i].replace(":cont", ":categorical").replace(":disc", ":categorical")

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError):
            read_dataset(p)

    def test_map_to_unknown_attribute(self, tmp_path):
        def mutate(ls):
            assert ls[2].startswith("#map")
            ls[2] = "#map aghost -> z1"

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError, match=r"d\.csv:3: .*unknown attribute aghost"):
            read_dataset(p)

    def test_map_out_of_range(self, tmp_path):
        def mutate(ls):
            assert ls[2].startswith("#map")
            ls[2] = ls[2].split(" -> ")[0] + " -> z9"

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError, match=r"d\.csv:3: .*z9"):
            read_dataset(p)

    def test_non_injective_map(self, tmp_path):
        ds = small_dataset(np.random.default_rng(5), n=6, d=3, m=2)
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        lines = p.read_text().splitlines()
        maps = [k for k, l in enumerate(lines) if l.startswith("#map")]
        lines[maps[1]] = lines[maps[1]].split(" -> ")[0] + lines[maps[0]][lines[maps[0]].index(" -> "):]
        p.write_text("\n".join(lines) + "\n")
        # The second map line claims the latent the first one took.
        with pytest.raises(FileFormatError, match=rf"d\.csv:{maps[1] + 1}: "):
            read_dataset(p)

    def test_non_integer_code_names_its_row(self, tmp_path):
        def mutate(ls):
            assert ls[3].endswith(":disc") and ls[6].endswith(",2.0")
            ls[6] = ls[6][: -len("2.0")] + "2.5"

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError, match=r"d\.csv:7: non-integer code 2\.5 in af0"):
            read_dataset(p)

    def test_more_attributes_than_latents_names_the_header(self, tmp_path):
        def mutate(ls):
            assert ls[3] == "z1,z2,af0:disc"
            ls[3] = "z1,ax:cont,af0:disc"

        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError, match=r"d\.csv:4: 2 attributes exceed D=1"):
            read_dataset(p)

    def test_single_row_names_the_header(self, tmp_path):
        p = self.write_and_break(tmp_path, lambda ls: ls.__delitem__(slice(5, None)))
        with pytest.raises(FileFormatError, match=r"d\.csv:4: .*at least 2 body rows"):
            read_dataset(p)

    @pytest.mark.parametrize(
        "mutate, lineno",
        [
            (lambda ls: ls.insert(6, ""), 7),
            (lambda ls: ls.append(""), 11),
            (lambda ls: ls.__setitem__(6, " \t "), 7),
            (lambda ls: ls.__setitem__(6, ls[6] + ","), 7),
            (lambda ls: ls.__setitem__(slice(4, None), [l + ",0.0" for l in ls[4:]]), 5),
            (lambda ls: ls.__setitem__(slice(4, None), [""] * 6), 5),
        ],
        ids=["empty", "empty-last", "blank", "trailing-comma", "all-rows-wide", "all-empty"],
    )
    @pytest.mark.filterwarnings("error")
    def test_body_numpy_would_read_otherwise_names_its_line(self, tmp_path, mutate, lineno):
        # numpy's loadtxt skips empty lines, and warns when no line is
        # left; the reader rejects each such body, without a warning.
        p = self.write_and_break(tmp_path, mutate)
        with pytest.raises(FileFormatError) as err:
            read_dataset(p)
        assert str(err.value).startswith(f"{p}:{lineno}: ")


# Pieces of a mutated dataset cell: the space around a number that
# float() or numpy's C reader strip, what numbers are made of, spellings
# that float() also reads, and the cell separator.
BODY_SPACES = st.sampled_from([" ", "\t", "\x1f", "\xa0", "\u3000"])
BODY_PIECES = st.one_of(
    BODY_SPACES, st.sampled_from([*"0123456789.eE+-", "_", "inf", "nan", "\u0661", ","])
)


def fuzz_dataset(seed: int, n: int) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(
        latents=rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-8, 8, (n, 2)),
        attributes=(
            SampleColumn(rng.integers(-2, 3, n).astype(float), kind="discrete"),
            SampleColumn(rng.standard_normal(n), kind="continuous"),
        ),
        names=("c", "x"),
    )


def mutate_body(body: list[str], data) -> None:
    """Change cells, lines, the line count or the width of body in place."""
    tokens = st.lists(BODY_PIECES, max_size=3).map("".join)
    spaces = st.lists(BODY_SPACES, max_size=2).map("".join)
    for _ in range(data.draw(st.integers(1, 3))):
        r = data.draw(st.integers(0, len(body) - 1))
        cells = body[r].split(",")
        c = data.draw(st.integers(0, len(cells) - 1))
        op = data.draw(st.sampled_from(["cell", "wrap", "line", "drop", "duplicate", "width"]))
        if op == "cell":
            cells[c] = data.draw(tokens)
            body[r] = ",".join(cells)
        elif op == "wrap":
            cells[c] = data.draw(spaces) + cells[c] + data.draw(spaces)
            body[r] = ",".join(cells)
        elif op == "line":
            body[r] = data.draw(tokens)
        elif op == "drop" and len(body) > 2:
            del body[r]
        elif op == "duplicate":
            body.insert(r, body[r])
        elif op == "width":
            # One cell more or one fewer on every line.
            cut = data.draw(st.booleans())
            body[:] = [line.rpartition(",")[0] if cut else f"{line},{r}" for line in body]


class TestDatasetBodyFuzz:
    @settings(
        max_examples=250, deadline=None, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.integers(0, 2**16), st.integers(2, 8), st.data())
    @pytest.mark.filterwarnings("error")
    def test_read_equals_the_line_loop(self, tmp_path, seed, n, data):
        # read_dataset gives the table of the line-by-line float() loop bit
        # for bit, or its error, or the error of a later check on that table.
        p = tmp_path / "d.csv"
        write_dataset(fuzz_dataset(seed, n), p)
        lines = p.read_text().splitlines()
        assert lines[4] == "z1,z2,ac:disc,ax:cont"
        head, body = lines[:5], lines[5:]
        mutate_body(body, data)
        p.write_text("\n".join(head + body) + "\n", encoding="utf-8")
        try:
            table = _parse_rows(body, p, len(head) + 1, 4)
        except FileFormatError as exc:
            with pytest.raises(FileFormatError) as err:
                read_dataset(p)
            assert str(err.value) == str(exc)
            return
        try:
            ds = read_dataset(p)
        except FileFormatError as exc:
            codes = table[:, 2]
            assert not np.isfinite(table).all() or not np.array_equal(codes, np.floor(codes))
            assert re.match(rf"{re.escape(str(p))}:\d+: (non-finite value|non-integer code) ", str(exc))
            return
        got = np.column_stack([ds.latents, *(col.values for col in ds.attributes)])
        assert np.array_equal(got.view(np.int64), table.view(np.int64))


class TestReportRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rep = small_report(np.random.default_rng(6))
        p = tmp_path / "r.report"
        write_report(rep, p)
        assert read_report(p) == rep

    def test_non_finite_dmig_and_empty_flags(self, tmp_path):
        rep = small_report(np.random.default_rng(7))
        attr = rep.per_attribute[0]
        patched = AttributeMetrics(
            name=attr.name,
            mig=attr.mig,
            dmig=float("inf"),
            scc=attr.scc,
            top_dim=attr.top_dim,
            runner_up_dim=None,
            branch=attr.branch,
            denominator=attr.denominator,
            flags=frozenset(),
        )
        rep2 = MetricReport(
            per_attribute=(patched, rep.per_attribute[1]),
            mean_mig=rep.mean_mig,
            mean_dmig=float("inf"),
            config_echo=rep.config_echo,
            dataset_digest=rep.dataset_digest,
        )
        p = tmp_path / "r.report"
        write_report(rep2, p)
        text = p.read_text()
        assert "dmig=+inf" in text and "flags=-" in text and "runner_up_dim=none" in text
        assert read_report(p) == rep2

    def test_negative_infinite_dmig(self, tmp_path):
        rep = small_report(np.random.default_rng(7))
        first = replace(rep.per_attribute[0], dmig=-math.inf)
        rep2 = replace(rep, per_attribute=(first, *rep.per_attribute[1:]), mean_dmig=-math.inf)
        p = tmp_path / "r.report"
        write_report(rep2, p)
        assert "dmig=-inf" in p.read_text()
        assert read_report(p) == rep2

    def test_wrong_kind_rejected(self, tmp_path):
        ds = small_dataset(np.random.default_rng(8))
        p = tmp_path / "d.csv"
        write_dataset(ds, p)
        with pytest.raises(FileFormatError):
            read_report(p)


class TestReportErrors:
    @pytest.mark.parametrize(
        "pattern, replacement",
        [
            (r"config k=3 ", "config k "),
            (r" mig=", " mig "),
            (r"branch=\S+", "branch=sideways"),
            (r"flags=\S+", "flags=mystery"),
            (r"config k=3 ", "config k=0 "),
            (r"unit=nats", "unit=bits"),
            (r"config k=3 ", "config k=3 k=3 "),
            (r" mig=", " mig=9.0 mig="),
            (r"(attribute [^\n]*\n)", r"\1\1"),
            (r"(digest [^\n]*\n)", r"\1\1"),
            (r"(config [^\n]*\n)", r"\1\1"),
            (r"(mean_mig [^\n]*\n)", r"\1\1"),
            (r"(mean_dmig [^\n]*\n)", r"\1\1"),
            (r"(attribute [^\n]*)\n", r"\1 extra=1\n"),
            (r"unit=nats", "unit=nats colour=red"),
            (r"#kind report\n", ""),
            (r"top_dim=z", "top_dim=q"),
            (r"top_dim=z[0-9]+", "top_dim=none"),
            (r" flags=\S+", ""),
            (r"(digest [^\n]*\n)", r"\1colour red\n"),
            (r"attribute \S+ ", "attribute  "),
            (r"config k=3 ", "config k=0_3 "),
            (r"seed=[0-9]+", "seed=\u0661"),
            (r" mig=\S+", " mig=1_0"),
            (r"jitter=\S+", "jitter=1e-1O"),
        ],
    )
    def test_malformed_line_raises_with_line_number(self, tmp_path, pattern, replacement):
        p = tmp_path / "r.report"
        write_report(small_report(np.random.default_rng(11)), p)
        text, n = re.subn(pattern, replacement, p.read_text(), count=1)
        assert n == 1
        p.write_text(text)
        with pytest.raises(FileFormatError, match=r"r\.report:\d+: "):
            read_report(p)

    def test_nameless_attribute_rejected_on_write(self, tmp_path):
        # Two nameless records would both be written as one repeated line.
        rep = small_report(np.random.default_rng(13))
        nameless = replace(rep, per_attribute=tuple(
            replace(a, name=None) for a in rep.per_attribute
        ))
        with pytest.raises(FileFormatError, match="unusable attribute name None"):
            write_report(nameless, tmp_path / "r.report")

    def test_report_without_attributes_rejected_on_write(self, tmp_path):
        # read_report would reject the block that such a report writes.
        rep = replace(small_report(np.random.default_rng(14)), per_attribute=())
        p = tmp_path / "r.report"
        match = r"r\.report: a report needs at least one attribute$"
        with pytest.raises(FileFormatError, match=match):
            write_report(rep, p)
        with pytest.raises(FileFormatError, match="needs at least one attribute"):
            write_series([(0, rep)], tmp_path / "s.series")
        assert list(tmp_path.iterdir()) == []

    def test_incomplete_block_names_the_file(self, tmp_path):
        p = tmp_path / "r.report"
        write_report(small_report(np.random.default_rng(11)), p)
        text, n = re.subn(r"mean_mig [^\n]*\n", "", p.read_text())
        assert n == 1
        p.write_text(text)
        with pytest.raises(
            FileFormatError, match=r"r\.report:\d+: incomplete report block, missing mean_mig$"
        ):
            read_report(p)


class TestSeriesRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        series = [(0, small_report(rng)), (3, small_report(rng)), (7, small_report(rng))]
        p = tmp_path / "s.series"
        write_series(series, p)
        assert read_series(p) == series

    def test_empty_series_rejected_on_write(self, tmp_path):
        # read_series would reject the file: it needs an epoch line.
        p = tmp_path / "s.series"
        match = r"s\.series: a series needs at least one epoch$"
        with pytest.raises(FileFormatError, match=match):
            write_series([], p)
        assert not p.exists()

    def test_non_increasing_epochs_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        series = [(2, small_report(rng)), (2, small_report(rng))]
        with pytest.raises(FileFormatError):
            write_series(series, tmp_path / "s.series")


class TestSeriesErrors:
    @pytest.mark.parametrize(
        "pattern, replacement, match",
        [
            (r"epoch 0\n", "epoch zero\n", r"s\.series:3: "),
            (r"epoch 3\n", "epoch 0_3\n", r"s\.series:\d+: "),
            (r"end\n", "end\nstray\n", r"s\.series:\d+: "),
            (r"(?s)epoch 0\n.*", "", r"s\.series:2: series contains no epochs"),
        ],
    )
    def test_malformed_series_raises(self, tmp_path, pattern, replacement, match):
        rng = np.random.default_rng(12)
        p = tmp_path / "s.series"
        write_series([(0, small_report(rng)), (3, small_report(rng))], p)
        text, n = re.subn(pattern, replacement, p.read_text(), count=1)
        assert n == 1
        p.write_text(text)
        with pytest.raises(FileFormatError, match=match):
            read_series(p)

    @staticmethod
    def epoch_3_line(tmp_path, text_edit):
        """Write a two-epoch series, edit its text, return (path, 'epoch 3' line number)."""
        p = tmp_path / "s.series"
        rng = np.random.default_rng(12)
        write_series([(0, small_report(rng)), (3, small_report(rng))], p)
        text = p.read_text()
        p.write_text(text_edit(text))
        return p, text.splitlines().index("epoch 3") + 1

    def test_unclosed_block_names_its_epoch_line(self, tmp_path):
        p, line = self.epoch_3_line(tmp_path, lambda text: text.removesuffix("end\n"))
        with pytest.raises(FileFormatError, match=rf"s\.series:{line}: epoch 3 block missing 'end'"):
            read_series(p)

    def test_empty_block_names_its_epoch_line(self, tmp_path):
        p, line = self.epoch_3_line(tmp_path, lambda text: text.replace("epoch 3\n", "epoch 3\nend\n"))
        with pytest.raises(
            FileFormatError,
            match=rf"s\.series:{line}: incomplete report block, missing digest, config, ",
        ):
            read_series(p)

    def test_non_increasing_epoch_names_its_line(self, tmp_path):
        p, line = self.epoch_3_line(tmp_path, lambda text: text.replace("epoch 3\n", "epoch 0\n"))
        with pytest.raises(FileFormatError, match=rf"s\.series:{line}: epochs must be strictly increasing"):
            read_series(p)


class TestTruthRoundTrip:
    def test_discrete(self, tmp_path):
        truth = discrete_truth(((0.4, 0.1), (0.1, 0.4)))
        p = tmp_path / "t.truth"
        write_truth("discrete_joint", truth, p)
        family, back = read_truth(p)
        assert family == "discrete_joint"
        np.testing.assert_equal(vars(back), vars(truth))

    def test_gaussian_nan_ideal(self, tmp_path):
        truth = gaussian_truth(0.8)
        p = tmp_path / "t.truth"
        write_truth("gaussian_pair", truth, p)
        family, back = read_truth(p)
        assert family == "gaussian_pair"
        np.testing.assert_equal(vars(back), vars(truth))
        assert math.isnan(back.ideal_dmig[0])


class TestTruthErrors:
    @pytest.mark.parametrize(
        "pattern, replacement",
        [
            (r"h_a1 \S+", "h_a1 abc"),
            (r"(i_a1a2 [^\n]*\n)", r"\1\1"),
            (r"(family [^\n]*\n)", r"\1colour red\n"),
            (r"h_a2 \S+", "h_a2"),
            (r"h_a1 \S+", "h_a1 1_4"),
        ],
    )
    def test_malformed_line_raises_with_line_number(self, tmp_path, pattern, replacement):
        p = tmp_path / "t.truth"
        write_truth("gaussian_pair", gaussian_truth(0.8), p)
        text, n = re.subn(pattern, replacement, p.read_text(), count=1)
        assert n == 1
        p.write_text(text)
        with pytest.raises(FileFormatError, match=r"t\.truth:\d+: "):
            read_truth(p)

    def test_missing_key_names_the_file(self, tmp_path):
        p = tmp_path / "t.truth"
        write_truth("gaussian_pair", gaussian_truth(0.8), p)
        text, n = re.subn(r"h_a2 [^\n]*\n", "", p.read_text())
        assert n == 1
        p.write_text(text)
        with pytest.raises(FileFormatError, match=r"t\.truth:\d+: truth sidecar missing 'h_a2' line"):
            read_truth(p)


class TestRandomizedRoundTrips:
    def test_many_instances(self, tmp_path):
        rng = np.random.default_rng(2026)
        for i in range(40):
            pick = i % 3
            if pick == 0:
                ds = small_dataset(
                    rng,
                    n=int(rng.integers(4, 30)),
                    d=int(rng.integers(2, 6)),
                    m=int(rng.integers(1, 3)),
                )
                p = tmp_path / f"{i}.csv"
                write_dataset(ds, p)
                assert read_dataset(p).digest() == ds.digest()
            elif pick == 1:
                rep = small_report(rng)
                p = tmp_path / f"{i}.report"
                write_report(rep, p)
                assert read_report(p) == rep
            else:
                series = [(t, small_report(rng)) for t in range(int(rng.integers(2, 4)))]
                p = tmp_path / f"{i}.series"
                write_series(series, p)
                assert read_series(p) == series


def valid_file(kind, path):
    """Write a valid file of one format to path; return its reader."""
    rng = np.random.default_rng(41)
    if kind == "dataset":
        write_dataset(small_dataset(rng, n=3, d=3, m=2), path)
        return read_dataset
    if kind == "report":
        write_report(small_report(rng), path)
        return read_report
    if kind == "series":
        write_series([(0, small_report(rng)), (2, small_report(rng))], path)
        return read_series
    write_truth("discrete_joint", discrete_truth(((0.4, 0.1), (0.1, 0.4))), path)
    return read_truth


KINDS = ["dataset", "report", "series", "truth"]


class TestUndecodableBytes:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_byte_names_its_line(self, tmp_path, kind):
        p = tmp_path / f"f.{kind}"
        read = valid_file(kind, p)
        lines = p.read_bytes().splitlines(keepends=True)
        # "\r\n" and a lone "\r" each end one line, as in str.splitlines.
        lines[0] = lines[0].replace(b"\n", b"\r\n")
        lines[1] = lines[1].replace(b"\n", b"\r")
        cases = [
            (3, [*lines[:2], lines[2][:3] + b"\xff" + lines[2][3:], *lines[3:]]),
            (4, [*lines[:3], b"\x85\n", *lines[3:]]),
            # A multi-byte sequence cut off at the end of the file.
            (len(lines), [*lines[:-1], lines[-1].rstrip(b"\n") + b"\xc3"]),
        ]
        for line, broken in cases:
            p.write_bytes(b"".join(broken))
            with pytest.raises(FileFormatError) as err:
                read(p)
            assert str(err.value).startswith(f"{p}:{line}: not UTF-8 text (")


# Bytes that a mutation writes in place of another: the undecodable \xff,
# \x85 (NEL when decoded, a stray continuation byte here), the line breaks
# \r and \x0b, and the separators of the formats.
FUZZ_BYTES = [b"\xff", b"\x85", b"\r", b"\x0b", b"=", b",", b"#", b" ", b"\n", b"-", b"0"]
TOKEN = re.compile(rb"[^ ,=\r\n]+")


def mutate_bytes(text: bytes, data) -> bytes:
    """text after one mutation drawn from data: a cut, a line or a byte edit, a token swap."""
    op = data.draw(st.sampled_from(["cut", "drop", "duplicate", "insert", "replace", "swap"]))
    if op == "cut":
        return text[:data.draw(st.integers(0, len(text)))]
    if op == "replace":
        i = data.draw(st.integers(0, len(text) - 1))
        new = data.draw(st.sampled_from(FUZZ_BYTES) | st.binary(min_size=1, max_size=1))
        return text[:i] + new + text[i + 1:]
    if op == "swap":
        spans = [m.span() for m in TOKEN.finditer(text)]
        if len(spans) < 2:
            return text
        i, j = sorted(data.draw(st.lists(
            st.integers(0, len(spans) - 1), min_size=2, max_size=2, unique=True
        )))
        (a, b), (c, d) = spans[i], spans[j]
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    if op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        new = data.draw(st.sampled_from(lines) | st.binary(max_size=12).map(lambda b: b + b"\n"))
        lines.insert(data.draw(st.integers(0, len(lines))), new)
    return b"".join(lines)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Per format: a path, its reader, and a valid file's bytes to mutate and to keep.

    Dataset bodies have their own property (TestDatasetBodyFuzz), so a
    dataset's head - its #format, #kind and #map lines and its header -
    is mutated, and its body rows are kept.
    """
    d = tmp_path_factory.mktemp("fuzz")
    files = {}
    for kind in KINDS:
        p = d / f"f.{kind}"
        read = valid_file(kind, p)
        lines = p.read_bytes().splitlines(keepends=True)
        n = [line[:3] for line in lines].index(b"z1,") + 1 if kind == "dataset" else len(lines)
        files[kind] = (p, read, b"".join(lines[:n]), b"".join(lines[n:]))
    return files


class TestReaderFuzz:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_mutation_returns_or_names_a_line(self, fuzz_files, kind, data):
        # Each reader, given a valid file after one or two mutations,
        # returns or raises FileFormatError naming a line.
        p, read, head, body = fuzz_files[kind]
        for _ in range(data.draw(st.integers(1, 2))):
            head = mutate_bytes(head, data) or b"\n"
        p.write_bytes(head + body)
        try:
            read(p)
        except FileFormatError as exc:
            assert re.match(rf"{re.escape(str(p))}:\d+: ", str(exc)), str(exc)
