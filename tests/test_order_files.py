"""Order text: the per-n subset-text tables against their definition, round
trips through every writer and reader, and a fuzzer over order files."""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cporders.cli import main
from cporders.errors import TieError
from cporders.orders import (
    ComparativeOrder,
    Subset,
    _check_n,
    _mask_from_text,
    _subset_texts,
    _text_masks,
    lexicographic_utilities,
    order_from_lines,
    order_from_utilities,
    order_to_line,
    order_to_lines,
)

CENSUS5 = Path(__file__).resolve().parents[1] / "bench" / "data" / "census5.json"


def test_tables_match_subset_text_for_every_mask():
    for n in range(1, 11):
        texts = _subset_texts(n)
        assert len(texts) == 1 << n
        for mask, text in enumerate(texts):
            assert text == Subset(mask, n).to_text()
            assert _mask_from_text(text, n) == mask
        assert _text_masks(n) == {text: mask for mask, text in enumerate(texts)}


@st.composite
def random_orders(draw, min_atoms=1, max_atoms=12):
    """The order of a random utility vector (lexicographic on a tie)."""
    n = draw(st.integers(min_atoms, max_atoms))
    entries = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    try:
        return order_from_utilities(entries)
    except TieError:
        return order_from_utilities(lexicographic_utilities(n))


@settings(max_examples=40, deadline=None)
@given(random_orders())
def test_lines_round_trip(order):
    assert order_from_lines(order_to_lines(order)) == order


def test_census5_lines_match_the_stored_digest(n5_census):
    # the digest was taken from lines built one Subset.to_text at a time
    expected = json.loads(CENSUS5.read_text(encoding="utf-8"))
    text = "\n".join(order_to_line(o) for o in n5_census.orders)
    assert len(n5_census.orders) == expected["orders"]
    assert hashlib.sha256(text.encode()).hexdigest() == expected["sha256"]


# ---------------------------------------------------------------------------
# Fuzzing the reader: mutations of canonical order files.


def per_line_oracle(lines):
    """The reader as it was before the tables: every stripped body line goes
    through ``_mask_from_text``."""
    lines = [ln.strip() for ln in lines if ln.strip()]
    if not lines:
        raise ValueError("empty order description")
    if re.fullmatch("[0-9]+", lines[0]) is None:
        raise ValueError(f"first line must be the atom count, got {lines[0]!r}")
    n = int(lines[0])
    _check_n(n)
    body = lines[1:]
    if len(body) != 1 << n:
        raise ValueError(f"expected {1 << n} subset lines for n={n}, got {len(body)}")
    ranked = [_mask_from_text(text, n) for text in body]
    if ranked[0] != 0:
        raise ValueError("first-ranked subset must be the empty set")
    return ComparativeOrder(n, ranked)


# str.strip removes the no-break space "\u00a0"; atoms and the atom count
# are ASCII decimal digits, so "01" and "03" read as 1 and 3 while "+1",
# "0_1" and "\u0661" (Arabic-Indic digit one), which int() would take, are
# malformed
PADS = ["", " ", "\t", "  ", "\u00a0"]
JUNK = [
    "x", "", ",", "1,", ",1", "1,,2", "1.0", "1e0", "0x1", "--", "-1", "+1", "01", "0_1",
    "\u0661", "1 2",
]
HEADERS = ["x", "", "0", "17", "-1", "+3", "03", "0_3", "\u0663", "4,", "1.5", "-"]


def test_only_ascii_digits_are_atoms_and_counts(tmp_path):
    lines = order_to_lines(order_from_utilities((1, 2, 4)))
    # leading zeros stay valid
    assert order_from_lines(["03", "-", "01"] + lines[3:]) == order_from_lines(lines)
    for token in ["+1", "0_1", "\u0661"]:
        with pytest.raises(ValueError, match=re.escape(f"cannot parse subset {token!r}")):
            order_from_lines(lines[:2] + [token] + lines[3:])
    for header in ["+3", "\u0663"]:
        message = f"first line must be the atom count, got {header!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            order_from_lines([header] + lines[1:])
        path = tmp_path / "order.txt"
        path.write_text("\n".join([header] + lines[1:]) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main(["represent", "--order-file", str(path)]) == 1
        assert message in err.getvalue()


def _body_index(draw, lines):
    return draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0


def reorder_atoms(draw, lines, n):
    k = _body_index(draw, lines)
    atoms = lines[k].split(",")
    lines[k] = ",".join(draw(st.permutations(atoms)))


def add_spaces(draw, lines, n):
    k = draw(st.integers(0, len(lines) - 1))
    sep = draw(st.sampled_from([",", " ,", ", ", " , ", ",\t"]))
    lines[k] = draw(st.sampled_from(PADS)) + lines[k].replace(",", sep) + draw(st.sampled_from(PADS))


def insert_blank(draw, lines, n):
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(PADS)))


def duplicate_line(draw, lines, n):
    k = draw(st.integers(0, len(lines) - 1))
    lines.insert(draw(st.integers(0, len(lines))), lines[k])


def delete_line(draw, lines, n):
    del lines[draw(st.integers(0, len(lines) - 1))]


def extra_line(draw, lines, n):
    text = Subset(draw(st.integers(0, (1 << n) - 1)), n).to_text()
    lines.insert(draw(st.integers(0, len(lines))), text)


def swap_lines(draw, lines, n):
    i, j = _body_index(draw, lines), _body_index(draw, lines)
    lines[i], lines[j] = lines[j], lines[i]


def atom_out_of_range(draw, lines, n):
    k = _body_index(draw, lines)
    bad = str(draw(st.sampled_from([0, -1, n + 1, 17, 10**20])))
    lines[k] = bad if lines[k] == "-" else lines[k] + "," + bad


def repeat_atom(draw, lines, n):
    k = _body_index(draw, lines)
    if lines[k] != "-":
        atoms = lines[k].split(",")
        lines[k] += "," + draw(st.sampled_from(atoms))


def junk_token(draw, lines, n):
    k = _body_index(draw, lines)
    atoms = lines[k].split(",")
    atoms[draw(st.integers(0, len(atoms) - 1))] = draw(st.sampled_from(JUNK))
    lines[k] = ",".join(atoms)


def bad_header(draw, lines, n):
    lines[0] = draw(st.sampled_from(HEADERS + [str(n - 1), str(n + 1)]))


MUTATIONS = [
    reorder_atoms, add_spaces, insert_blank, duplicate_line, delete_line, extra_line,
    swap_lines, atom_out_of_range, repeat_atom, junk_token, bad_header,
]


@st.composite
def fuzzed_order_files(draw, max_atoms=5):
    """A canonical order file under a few mutations, maybe truncated."""
    order = draw(random_orders(max_atoms=max_atoms))
    lines, n = order_to_lines(order), order.n
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), max_size=4)):
        if lines:  # a file whose every line was deleted stays empty
            mutate(draw, lines, n)
    text = "".join(line + "\n" for line in lines)
    if draw(st.integers(0, 3)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _outcome(parse, lines):
    try:
        return parse(lines)
    except Exception as exc:  # compared by type and message
        return exc


@settings(max_examples=400, deadline=None)
@given(fuzzed_order_files())
def test_reader_matches_per_line_oracle(text):
    lines = io.StringIO(text).readlines()
    want, got = _outcome(per_line_oracle, lines), _outcome(order_from_lines, lines)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


@settings(max_examples=150, deadline=None)
@given(fuzzed_order_files())
def test_represent_on_fuzzed_files_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["represent", "--order-file", str(path)])
    assert code in (0, 1, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
