"""The line grammar shared by the text formats: comments and line ends are
read the same way in every format."""

import pytest

from qvn.cli import parse_run_file
from qvn.errors import ParseError
from qvn.memory import deserialize, serialize
from qvn.qec import bit_flip_code, parse_code, serialize_code
from qvn.text import Line

RUN = (
    "run shots=3\nslot addr=0 copies=1\nQVN1 name=H n=1\nt=0 g=H q=0\nendslot\n"
    "schedule\nrestore addr=0 copies=1\ncompose a=0 b=1 strategy=correction_table dest=2\n"
    "endschedule\n"
)


@pytest.mark.parametrize(
    "parse, write, clean, noisy",
    [
        pytest.param(deserialize, serialize, "QVN1 name=H n=1\nt=0 g=H q=0\n",
                     "# the H program\nQVN1 name=H n=1\nt=0 g=H q=0\n", id="qvn1-comment"),
        pytest.param(parse_code, serialize_code, serialize_code(bit_flip_code()),
                     "  # bit flip\n" + serialize_code(bit_flip_code()), id="code-comment"),
    ],
)
def test_comments_and_line_ends_read_as_clean_text(parse, write, clean, noisy):
    assert write(parse(noisy)) == write(parse(clean)) == clean


def test_run_file_lone_cr_reads_as_lf():
    # schedule lines live inside run files, which have no writer to round trip
    clean = parse_run_file(RUN)
    assert len(clean[2]) == 1 and len(clean[3]) == 2  # one slot, two instructions
    assert parse_run_file(RUN.replace("\n", "\r")) == clean


def test_misaligned_entries_are_an_error():
    # as many parts as a 2×2 matrix has, but the first entry has three
    line = Line(1, "readout rows=2 data=1,0,0;0;0,0;1,0")
    with pytest.raises(ParseError, match=r"^bad complex entry '1,0,0' \(line 1, col 16\)$"):
        line.matrix(2, 2)


@pytest.mark.parametrize("rows", [100000, 10**10])
def test_entry_count_error_whatever_rows_asks(rows):
    # the bulk pass compares lengths before it builds anything of size rows²
    line = Line(1, f"readout rows={rows} data=1,0")
    message = f"expected {rows * rows} complex entries, got 1"
    with pytest.raises(ParseError, match=rf"^{message} \(line 1, col {15 + len(str(rows))}\)$"):
        line.matrix(rows, rows)
