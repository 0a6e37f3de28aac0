"""Text file formats for datasets, reports, series and truth sidecars.

All files start with a `#format v1` line followed by a `#kind` line.
Numbers are serialized with repr, which round-trips 64-bit floats
exactly; infinities appear as the literal tokens `+inf` / `-inf` and NaN
as `nan` (reports only - dataset bodies must be finite).

Dataset files are CSV with a header declaring each column as `z<k>`
(latent dimension k, 1-based) or `a<name>:<kind>` with kind `cont` or
`disc`. Optional `#map a<name> -> z<k>` lines before the header override
the default identity assignment of attributes to latent dimensions.
Each body cell reads as the value float() gives it, bit for bit. The
reader reads the head a line at a time through the header, then the
body's bytes in one read. A body of plain number bytes goes to numpy's
C reader as those bytes, so its lines are never all held at once; any
other body, or one the C reader rejects or reads into another shape, is
split and goes to a line loop that names the first line it rejects.

Report files are line-oriented key/value text; series files hold one
report block per epoch between `epoch <t>` and `end` lines, with epochs
strictly increasing. Truth sidecars carry the closed-form quantities of
a synthetic family.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import get_args

import numpy as np

from .errors import DmigError, FileFormatError
from .estimation import (
    _JITTER, _SEED, CONTINUOUS, DISCRETE, EstimatorConfig, SampleColumn, _integer_valued
)
from .metrics import _FLAGS, AttributeMetrics, Branch, Dataset, MetricReport
from .synthetic import GroundTruth

__all__ = [
    "read_dataset",
    "write_dataset",
    "read_report",
    "write_report",
    "read_series",
    "write_series",
    "read_truth",
    "write_truth",
]

FORMAT_LINE = "#format v1"

_KIND_TO_TOKEN = {CONTINUOUS: "cont", DISCRETE: "disc"}
_TOKEN_TO_KIND = {token: kind for kind, token in _KIND_TO_TOKEN.items()}

_Z_TOKEN = re.compile(r"^z([1-9][0-9]*)$")
_MAP_LINE = re.compile(r"^#map a(.+) -> z([1-9][0-9]*)$")

# Rows of a dataset body formatted and written at a time.
_BLOCK_ROWS = 1024


def format_float(v: float) -> str:
    if math.isnan(v):
        return "nan"
    if v == math.inf:
        return "+inf"
    if v == -math.inf:
        return "-inf"
    return repr(float(v))


def _plain(text: str) -> bool:
    """Whether text is free of "_" and non-ASCII: float() reads "1_0" as 10.0 and "١" as 1.0."""
    return "_" not in text and text.isascii()


def parse_float(token: str, where: str) -> float:
    if token == "+inf":
        return math.inf
    if token == "-inf":
        return -math.inf
    if token == "nan":
        return math.nan
    try:
        if not _plain(token):
            raise ValueError
        v = float(token)
    except ValueError:
        raise FileFormatError(f"{where}: not a number: {token!r}") from None
    if not math.isfinite(v):
        # float() accepts spellings like 'inf'/'Infinity'; only the
        # canonical tokens above may carry non-finite values.
        raise FileFormatError(f"{where}: non-finite literal {token!r}")
    return v


def _parse_int(token: str, where: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", token):
        raise FileFormatError(f"{where}: not an integer: {token!r}")
    return int(token)


def _check_name(name: str | None, where: str) -> str:
    # Every line break of str.splitlines() and every space but " " is
    # non-printable, so a printable name without " " has none of them.
    if not name or not name.isprintable() or any(c in name for c in " ,="):
        raise FileFormatError(f"{where}: unusable attribute name {name!r}")
    return name


def _write(path: str | Path, kind: str, chunks: Iterable[list[str]]) -> None:
    """Write the format and kind lines, then each chunk of body lines in turn."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{FORMAT_LINE}\n#kind {kind}\n")
        for lines in chunks:
            f.write("\n".join(lines))
            f.write("\n")


def _decode(data: bytes, path: Path, lines_before: int = 0) -> str:
    """data as UTF-8 text; a bad byte names its line.

    Lines are counted as str.splitlines counts them, after lines_before
    whole lines that precede data in the file.
    """
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = lines_before + len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise FileFormatError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def _check_kind(path: Path, lines: list[str], kind: str) -> int:
    """Check the format and kind lines atop lines; return the index after them."""
    if not lines or lines[0] != FORMAT_LINE:
        raise FileFormatError(f"{path}:1: expected leading '{FORMAT_LINE}' line")
    if len(lines) > 1 and lines[1].startswith("#kind "):
        found = lines[1][len("#kind "):]
        if found != kind:
            raise FileFormatError(
                f"{path}:2: expected '#kind {kind}', found '#kind {found}'"
            )
        return 2
    if kind != "dataset":
        # Dataset files may omit the kind line (the CSV header is
        # self-identifying); report/series/truth files may not.
        raise FileFormatError(f"{path}:2: expected '#kind {kind}' line")
    return 1


def _read(path: str | Path, kind: str) -> tuple[Path, list[str], int]:
    """Read a file, check its format and kind lines; return the body start."""
    path = Path(path)
    # The bytes are not held through the split, which keeps peak memory down.
    lines = _decode(path.read_bytes(), path).splitlines()
    return path, lines, _check_kind(path, lines, kind)


# ---------------------------------------------------------------------------
# Dataset files


def _cells(values: np.ndarray, kind: str) -> list[str]:
    """Each value's repr; a discrete column formats each distinct value once."""
    if kind != DISCRETE:
        return list(map(repr, values.tolist()))
    # Distinct bit patterns, so that -0.0 keeps its own token.
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    tokens = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(tokens.__getitem__, index.tolist()))


def _body_blocks(ds: Dataset) -> Iterator[list[str]]:
    """The body's rows, _BLOCK_ROWS at a time, each block formatted by column."""
    columns = [*ds.latents.T, *(col.values for col in ds.attributes)]
    kinds = [*ds.latent_kinds, *(col.kind for col in ds.attributes)]
    for lo in range(0, ds.n, _BLOCK_ROWS):
        cells = (_cells(c[lo:lo + _BLOCK_ROWS], kind) for c, kind in zip(columns, kinds))
        yield list(map(",".join, zip(*cells)))


def write_dataset(ds: Dataset, path: str | Path) -> None:
    for name in ds.names:
        _check_name(name, str(path))
    lines = [f"#map a{name} -> z{j + 1}" for name, j in zip(ds.names, ds.regularized_map)]
    header = [f"z{j + 1}" for j in range(ds.d)]
    header += [
        f"a{name}:{_KIND_TO_TOKEN[col.kind]}"
        for name, col in zip(ds.names, ds.attributes)
    ]
    lines.append(",".join(header))
    # Dataset values are finite, so repr equals format_float. Only one
    # block of rows is formatted at a time, which keeps peak memory down.
    _write(path, "dataset", itertools.chain([lines], _body_blocks(ds)))


def _read_dataset_file(path: Path) -> tuple[list[str], bytes]:
    """The lines of a dataset file's head, and the bytes of its body.

    The head runs through the first line that does not start with "#",
    the column header of a file that starts with its format line. It is
    read a "\n"-ended run at a time; a "\n" ends every line break it is
    in and is part of no longer character, so each run splits into whole
    lines as str.splitlines splits the whole text. The body is the rest
    of the file in one read, checked to be UTF-8 and kept as bytes.
    """
    with open(path, "rb") as f:
        lines: list[str] = []
        end = None  # the index after the head's last line
        while end is None and (run := f.readline()):
            start = len(lines)
            lines += _decode(run, path, start).splitlines(keepends=True)
            end = next((i + 1 for i in range(start, len(lines)) if lines[i][:1] != "#"), None)
        head = "".join(lines[:end])
        # From the raw file: a seek inside the buffer keeps it for read() to copy.
        f.raw.seek(len(head.encode("utf-8")))
        body = f.raw.readall()
    lines = head.splitlines()
    if not body.isascii():
        _decode(body, path, len(lines))
    return lines, body


# The bytes of a body that numpy's C reader reads as _parse_rows does.
# Beyond them it strips more space around a cell, such as "\xa0" and
# "\x1f", which _parse_rows rejects.
_PLAIN_BODY = b"0123456789+-.eE \t,\n"


def _plain_rows(body: bytes) -> int | None:
    """The line count of a body that numpy's C reader may take, or None.

    Such a body holds only _PLAIN_BODY bytes and the "\r" of each "\r\n"
    (the C reader takes a lone "\r" for a break inside a line), so its
    lines are those of str.splitlines, each ended by "\n" but perhaps
    the last. Its first line is not empty: the C reader skips an empty
    line, which changes the table's shape, but warns when none is left.
    """
    other = body.translate(None, _PLAIN_BODY)
    if (other and other != b"\r" * body.count(b"\r\n")) or body.startswith((b"\n", b"\r\n")):
        return None
    return body.count(b"\n") + (body[-1:] not in (b"", b"\n"))


def _parse_rows(body: list[str], path: Path, first_lineno: int, width: int) -> np.ndarray:
    """The body's table, read line by line with float(); names a rejected line."""
    values: list[float] = []
    for lineno, line in enumerate(body, start=first_lineno):
        cells = line.split(",")
        if len(cells) != width:
            raise FileFormatError(
                f"{path}:{lineno}: expected {width} cells, found {len(cells)}"
            )
        if not _plain(line):
            cell = next(c for c in cells if not _plain(c))
            raise FileFormatError(f"{path}:{lineno}: not a plain number: {cell!r}")
        try:
            values += map(float, cells)
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return np.array(values, dtype=np.float64).reshape(-1, width)


def _parse_body(body: bytes, rows: int, path: Path, first_lineno: int, width: int) -> np.ndarray:
    """A plain body's table, equal bit for bit to _parse_rows' or with its error.

    rows is _plain_rows(body). numpy's C reader, which calls the same
    strtod as float(), reads the body's bytes, never holding all its
    lines at once. A body the C reader rejects or reads into another
    shape is decoded, split and sent to _parse_rows.
    """
    try:
        table = np.loadtxt(
            io.BytesIO(body), delimiter=",", comments=None, dtype=np.float64, ndmin=2
        )
    except ValueError:
        pass
    else:
        if table.shape == (rows, width):
            return table
    return _parse_rows(body.decode("utf-8").splitlines(), path, first_lineno, width)


def _check_table(
    table: np.ndarray, attr_cols: list[tuple[str, str, int]], path: Path, first_lineno: int
) -> None:
    """Make the value checks of Dataset and SampleColumn, naming a line."""
    if not np.isfinite(table).all():
        r = int(np.argmin(np.isfinite(table).all(axis=1)))
        bad = table[r][~np.isfinite(table[r])][0]
        raise FileFormatError(f"{path}:{first_lineno + r}: non-finite value {bad}")
    for name, kind, c in attr_cols:
        col = table[:, c]
        if kind == DISCRETE and not _integer_valued(col):
            r = int(np.argmax(col != np.floor(col)))
            raise FileFormatError(
                f"{path}:{first_lineno + r}: non-integer code {format_float(col[r])} "
                f"in a{name}:disc"
            )


def read_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    lines, body = _read_dataset_file(path)
    idx = _check_kind(path, lines, "dataset")

    mapping: dict[str, tuple[int, int]] = {}  # name -> (latent index, line number)
    while idx < len(lines) and lines[idx].startswith("#"):
        m = _MAP_LINE.match(lines[idx])
        if not m:
            raise FileFormatError(f"{path}:{idx + 1}: malformed map line {lines[idx]!r}")
        name = m.group(1)
        if name in mapping:
            raise FileFormatError(f"{path}:{idx + 1}: duplicate map for a{name}")
        mapping[name] = (int(m.group(2)) - 1, idx + 1)
        idx += 1
    if idx >= len(lines):
        raise FileFormatError(f"{path}:{idx}: missing header row after the last line")

    header_lineno = idx + 1
    tokens = lines[idx].split(",")
    z_cols: dict[int, int] = {}
    attr_cols: list[tuple[str, str, int]] = []
    for c, tok in enumerate(tokens):
        zm = _Z_TOKEN.match(tok)
        if zm:
            k = int(zm.group(1))
            if k in z_cols:
                raise FileFormatError(f"{path}:{header_lineno}: duplicate column z{k}")
            z_cols[k] = c
        elif tok.startswith("a") and ":" in tok:
            name, _, kind_tok = tok[1:].rpartition(":")
            _check_name(name, f"{path}:{header_lineno}")
            if kind_tok not in _TOKEN_TO_KIND:
                raise FileFormatError(
                    f"{path}:{header_lineno}: unknown kind {kind_tok!r} in {tok!r}"
                )
            attr_cols.append((name, _TOKEN_TO_KIND[kind_tok], c))
        else:
            raise FileFormatError(
                f"{path}:{header_lineno}: malformed column declaration {tok!r}"
            )
    d = len(z_cols)
    if d == 0:
        raise FileFormatError(f"{path}:{header_lineno}: no latent columns declared")
    if sorted(z_cols) != list(range(1, d + 1)):
        raise FileFormatError(
            f"{path}:{header_lineno}: latent columns must be exactly z1..z{d}"
        )
    names = [name for name, _, _ in attr_cols]
    if len(set(names)) != len(names):
        raise FileFormatError(f"{path}:{header_lineno}: duplicate attribute names")
    if len(names) > d:
        raise FileFormatError(f"{path}:{header_lineno}: {len(names)} attributes exceed D={d}")
    plain_rows = _plain_rows(body)
    # Any other body is split once, here, and goes to the line loop.
    text = None if plain_rows is not None else body.decode("utf-8").splitlines()
    rows = plain_rows if text is None else len(text)
    if rows < 2:
        raise FileFormatError(f"{path}:{header_lineno}: a dataset needs at least 2 body rows")
    # Unmapped attributes keep their own index; a later claim of a taken
    # latent is the map line at fault.
    taken = {i for i, name in enumerate(names) if name not in mapping}
    for name, (j, lineno) in mapping.items():
        if name not in names:
            raise FileFormatError(f"{path}:{lineno}: map references unknown attribute a{name}")
        if j >= d:
            raise FileFormatError(f"{path}:{lineno}: map target z{j + 1} beyond z{d}")
        if j in taken:
            raise FileFormatError(f"{path}:{lineno}: z{j + 1} is mapped to two attributes")
        taken.add(j)

    if text is None:
        table = _parse_body(body, rows, path, header_lineno + 1, len(tokens))
    else:
        table = _parse_rows(text, path, header_lineno + 1, len(tokens))
    del body, text  # not held while the Dataset is built, which keeps peak memory down
    _check_table(table, attr_cols, path, header_lineno + 1)

    # Every check of Dataset and SampleColumn has been made, with a line.
    # The attributes copy their columns and the latents are gathered
    # before the table is dropped, so Dataset copies the latents without it.
    attributes = tuple(SampleColumn(table[:, c], kind=kind) for _, kind, c in attr_cols)
    latents = table[:, [z_cols[k] for k in range(1, d + 1)]]
    del table
    reg = tuple(mapping[name][0] if name in mapping else i for i, name in enumerate(names))
    return Dataset(
        latents=latents,
        attributes=attributes,
        regularized_map=reg,
        names=tuple(names),
    )


# ---------------------------------------------------------------------------
# Report files


def _dim_token(j: int | None) -> str:
    return "none" if j is None else f"z{j + 1}"


def _parse_dim(tok: str, where: str) -> int:
    m = _Z_TOKEN.match(tok)
    if not m:
        raise FileFormatError(f"{where}: bad dimension token {tok!r}")
    return int(m.group(1)) - 1


def _parse_branch(tok: str, where: str) -> Branch:
    if tok not in get_args(Branch):
        raise FileFormatError(f"{where}: unknown branch {tok!r}")
    return tok


def _parse_flags(tok: str, where: str) -> frozenset[str]:
    flags = frozenset() if tok == "-" else frozenset(tok.split(","))
    unknown = flags - _FLAGS
    if unknown:
        raise FileFormatError(f"{where}: unknown flags {sorted(unknown)}")
    return flags


def _parse_unit(tok: str, where: str) -> None:
    if tok != "nats":
        raise FileFormatError(f"{where}: unsupported unit {tok!r}")


def _or_none(write, read) -> tuple:
    """The writer and reader pair of a field that may be None ('none')."""
    return (
        lambda v: "none" if v is None else write(v),
        lambda tok, where: None if tok == "none" else read(tok, where),
    )


# The key=value items of the config and attribute lines, in written
# order: each key maps to a writer of the record's field of that name and
# a reader of its token. Every estimate is in nats, and the tie-breaking
# jitter and its seed are constants of estimation, so those three are
# written from no field and their readers only check the token.
_CONFIG_FIELDS = {
    "k": (str, _parse_int),
    "jitter": (lambda _: format_float(_JITTER), parse_float),
    "seed": (lambda _: str(_SEED), _parse_int),
    "unit": (lambda _: "nats", _parse_unit),
}
_ATTRIBUTE_FIELDS = {
    "mig": (format_float, parse_float),
    "dmig": (format_float, parse_float),
    "scc": _or_none(format_float, parse_float),
    "top_dim": (_dim_token, _parse_dim),
    "runner_up_dim": _or_none(_dim_token, _parse_dim),
    "branch": (str, _parse_branch),
    "denominator": (format_float, parse_float),
    "flags": (lambda v: ",".join(sorted(v)) if v else "-", _parse_flags),
}


def _kv_text(record: object, fields: dict) -> str:
    return " ".join(
        f"{key}={write(getattr(record, key, None))}" for key, (write, _) in fields.items()
    )


def _parse_kv(text: str, where: str, fields: dict) -> dict[str, object]:
    """The values of a line's key=value items, each key of fields once."""
    tokens = {}
    for item in text.split(" "):
        key, sep, value = item.partition("=")
        if not sep:
            raise FileFormatError(f"{where}: expected key=value, got {item!r}")
        if key not in fields:
            raise FileFormatError(f"{where}: unknown key {key!r}")
        if key in tokens:
            raise FileFormatError(f"{where}: repeated key {key!r}")
        tokens[key] = value
    missing = [key for key in fields if key not in tokens]
    if missing:
        raise FileFormatError(f"{where}: missing keys {missing}")
    return {key: read(tokens[key], where) for key, (_, read) in fields.items()}


def _report_body(report: MetricReport, path: str | Path) -> list[str]:
    if not report.per_attribute:
        # read_report requires an attribute line.
        raise FileFormatError(f"{path}: a report needs at least one attribute")
    lines = [
        f"digest {report.dataset_digest}",
        f"config {_kv_text(report.config_echo, _CONFIG_FIELDS)}",
        f"mean_mig {format_float(report.mean_mig)}",
        f"mean_dmig {format_float(report.mean_dmig)}",
    ]
    for a in report.per_attribute:
        name = _check_name(a.name, str(path))
        lines.append(f"attribute {name} {_kv_text(a, _ATTRIBUTE_FIELDS)}")
    return lines


def _parse_report_body(lines: list[str], path: Path, start_lineno: int) -> MetricReport:
    kw: dict[str, object] = {}
    per: list[AttributeMetrics] = []
    seen: set[str] = set()
    for off, line in enumerate(lines):
        where = f"{path}:{start_lineno + off}"
        key, _, rest = line.partition(" ")
        ident = f"attribute {rest.partition(' ')[0]}" if key == "attribute" else key
        if ident in seen:
            raise FileFormatError(f"{where}: repeated {ident!r} line")
        seen.add(ident)
        if key == "digest":
            kw["dataset_digest"] = rest
        elif key == "config":
            k = _parse_kv(rest, where, _CONFIG_FIELDS)["k"]
            try:
                kw["config_echo"] = EstimatorConfig(k=k)
            except DmigError as exc:
                raise FileFormatError(f"{where}: bad config line: {exc}") from exc
        elif key in ("mean_mig", "mean_dmig"):
            kw[key] = parse_float(rest, where)
        elif key == "attribute":
            name, _, kvs = rest.partition(" ")
            _check_name(name, where)
            per.append(AttributeMetrics(name=name, **_parse_kv(kvs, where, _ATTRIBUTE_FIELDS)))
        else:
            raise FileFormatError(f"{where}: unknown report line {line!r}")
    missing = [key for key in ("digest", "config", "mean_mig", "mean_dmig") if key not in seen]
    if not per:
        missing.append("attribute")
    if missing:
        # Named at the block's last line, or the line before an empty block.
        last = f"{path}:{start_lineno + len(lines) - 1}"
        raise FileFormatError(f"{last}: incomplete report block, missing {', '.join(missing)}")
    return MetricReport(per_attribute=tuple(per), **kw)


def write_report(report: MetricReport, path: str | Path) -> None:
    _write(path, "report", [_report_body(report, path)])


def read_report(path: str | Path) -> MetricReport:
    path, lines, idx = _read(path, "report")
    return _parse_report_body(lines[idx:], path, idx + 1)


# ---------------------------------------------------------------------------
# Series files


def _check_epochs(epochs: list[int], where: list[str]) -> None:
    """Epochs must strictly increase; where[i] names the place of epochs[i]."""
    for a, b, at in zip(epochs, epochs[1:], where[1:]):
        if b <= a:
            raise FileFormatError(f"{at}: epochs must be strictly increasing, got {b} after {a}")


def write_series(series: list[tuple[int, MetricReport]], path: str | Path) -> None:
    if not series:
        # read_series requires an epoch.
        raise FileFormatError(f"{path}: a series needs at least one epoch")
    _check_epochs([t for t, _ in series], [str(path)] * len(series))
    lines = []
    for t, report in series:
        lines += [f"epoch {t}", *_report_body(report, path), "end"]
    _write(path, "series", [lines])


def read_series(path: str | Path) -> list[tuple[int, MetricReport]]:
    path, lines, idx = _read(path, "series")
    series: list[tuple[int, MetricReport]] = []
    epoch_lines: list[str] = []
    i = idx
    while i < len(lines):
        where = f"{path}:{i + 1}"
        if not lines[i].startswith("epoch "):
            raise FileFormatError(f"{where}: expected 'epoch <t>' line, got {lines[i]!r}")
        t = _parse_int(lines[i][len("epoch "):], where)
        j = i + 1
        while j < len(lines) and lines[j] != "end":
            j += 1
        if j >= len(lines):
            raise FileFormatError(f"{where}: epoch {t} block missing 'end' line")
        series.append((t, _parse_report_body(lines[i + 1:j], path, i + 2)))
        epoch_lines.append(where)
        i = j + 1
    if not series:
        raise FileFormatError(f"{path}:{len(lines)}: series contains no epochs")
    _check_epochs([t for t, _ in series], epoch_lines)
    return series


# ---------------------------------------------------------------------------
# Ground-truth sidecars


_TRUTH_KEYS = (
    "family", "h_a1", "h_a2", "i_a1a2", "h_cond12", "h_cond21", "ideal_dmig1", "ideal_dmig2"
)


def write_truth(family: str, truth: GroundTruth, path: str | Path) -> None:
    values = (
        *truth.h_a, truth.i_a1a2, truth.h_cond[0][1], truth.h_cond[1][0], *truth.ideal_dmig
    )
    lines = [f"family {family}"]
    lines += [f"{key} {format_float(v)}" for key, v in zip(_TRUTH_KEYS[1:], values)]
    _write(path, "truth", [lines])


def read_truth(path: str | Path) -> tuple[str, GroundTruth]:
    path, lines, idx = _read(path, "truth")
    kv: dict[str, str | float] = {}
    for lineno, line in enumerate(lines[idx:], start=idx + 1):
        where = f"{path}:{lineno}"
        key, _, rest = line.partition(" ")
        if not rest:
            raise FileFormatError(f"{where}: malformed line {line!r}")
        if key not in _TRUTH_KEYS:
            raise FileFormatError(f"{where}: unknown key {key!r}")
        if key in kv:
            raise FileFormatError(f"{where}: repeated key {key!r}")
        kv[key] = rest if key == "family" else parse_float(rest, where)
    try:
        family, h1, h2, i12, hc12, hc21, d1, d2 = (kv[key] for key in _TRUTH_KEYS)
    except KeyError as exc:
        raise FileFormatError(f"{path}:{len(lines)}: truth sidecar missing {exc} line") from exc
    truth = GroundTruth(
        h_a=(h1, h2),
        i_a1a2=i12,
        h_cond=((0.0, hc12), (hc21, 0.0)),
        ideal_dmig=(d1, d2),
    )
    return family, truth
