"""The line grammar shared by the text formats: comments and line ends are
read the same way in every format."""

import pytest

from qvn.control import parse_schedule, serialize_schedule
from qvn.memory import deserialize, serialize
from qvn.qec import bit_flip_code, parse_code, serialize_code

SCHEDULE = "restore addr=0 copies=1\ncompose a=0 b=1 strategy=correction_table dest=2\n"


@pytest.mark.parametrize(
    "parse, write, clean, noisy",
    [
        pytest.param(deserialize, serialize, "QVN1 name=H n=1\nt=0 g=H q=0\n",
                     "# the H program\nQVN1 name=H n=1\nt=0 g=H q=0\n", id="qvn1-comment"),
        pytest.param(parse_code, serialize_code, serialize_code(bit_flip_code()),
                     "  # bit flip\n" + serialize_code(bit_flip_code()), id="code-comment"),
        pytest.param(parse_schedule, serialize_schedule, SCHEDULE, SCHEDULE.replace("\n", "\r"),
                     id="schedule-lone-cr"),
    ],
)
def test_comments_and_line_ends_read_as_clean_text(parse, write, clean, noisy):
    assert write(parse(noisy)) == write(parse(clean)) == clean
