"""The one line grammar of every qvn text format: QVN1 programs, code
documents, schedules, run files and topological diagrams.

A document is split into lines at LF, CRLF or a lone CR, numbered from 1.
Blank lines and lines whose first non-space character is `#` are skipped.
A content line is a list of tokens separated by spaces: an optional
leading bare token (the verb), then `key=value` fields. A bare token after
the first one, a key given twice and a key the reader of the line does not
take are errors. Every error is a `ParseError` carrying the line and column
of the token at fault.
"""

from __future__ import annotations

import cmath
from contextlib import contextmanager

import numpy as np

from .errors import ParseError, ValidationError


def _split(text):
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def decode(data: bytes) -> str:
    """UTF-8 text of `data`; a byte that is not UTF-8 is a ParseError at its
    line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _split(data[: exc.start].decode("utf-8"))
        raise ParseError(
            f"byte {data[exc.start]:#04x} is not UTF-8", len(before), len(before[-1]) + 1
        ) from None


def lines(text):
    """The content lines of a document, as `Line`s."""
    for no, raw in enumerate(_split(text), start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield Line(no, raw)


class Line:
    """One content line: its number, its verb (or None), its fields, a map
    from key to (value, column), and the keys its getters have read."""

    __slots__ = ("no", "verb", "fields", "read")

    def __init__(self, no, raw):
        self.no = no
        self.verb = None
        self.fields = {}
        self.read = set()
        col = 1
        for token in raw.split(" "):
            if token:
                key, eq, value = token.partition("=")
                if not eq:
                    if self.verb is not None or self.fields:
                        raise ParseError(f"stray token {token!r}", no, col)
                    self.verb = token
                elif key in self.fields:
                    raise ParseError(f"duplicate key {key}=", no, col)
                else:
                    self.fields[key] = (value, col)
            col += len(token) + 1

    def error(self, message, key=None) -> ParseError:
        """ParseError at the column of `key` (column 1 without one)."""
        return ParseError(message, self.no, self.fields[key][1] if key else 1)

    @contextmanager
    def located(self, key=None):
        """Report a ValidationError raised inside as a ParseError at this
        line, at the column of `key` (column 1 without one)."""
        try:
            yield
        except ValidationError as exc:
            raise self.error(str(exc), key) from exc

    def done(self):
        """Raise a ParseError at the first key that no getter has read: the
        reader of this line does not take it."""
        if len(self.read) == len(self.fields):  # the read keys are fields
            return
        for key in self.fields:
            if key not in self.read:
                where = f" on a {self.verb} line" if self.verb else ""
                raise self.error(f"unknown key {key}={where}", key)

    def str(self, key, default=None):
        """Value of `key=`; a missing key gives `default`, or is an error
        when there is none."""
        if key in self.fields:
            self.read.add(key)
            return self.fields[key][0]
        if default is None:
            raise self.error(f"{self.verb} needs {key}=" if self.verb else f"missing {key}=")
        return default

    def int(self, key, default=None, low=None, high=None):
        """Integer value of `key=` within [low, high]; defaults as `str`."""
        if key not in self.fields and default is not None:
            return default
        value = self.str(key)
        try:
            number = int(value)
        except ValueError:
            raise self.error(f"bad integer {key}={value!r}", key) from None
        if low is not None and number < low:
            raise self.error(f"{key}={number} is below {low}", key)
        if high is not None and number > high:
            raise self.error(f"{key}={number} exceeds the limit {high}", key)
        return number

    def ints(self, key):
        """Comma-separated integer list of `key=`, e.g. `q=0,1`."""
        value = self.str(key)
        try:
            return tuple(int(x) for x in value.split(","))
        except ValueError:
            raise self.error(f"bad integer list {key}={value!r}", key) from None

    def matrix(self, rows, cols):
        """The rows×cols complex matrix of `data=`, row-major `re,im;re,im;...`,
        every entry finite."""
        text = self.str("data")
        col = self.fields["data"][1]
        entries = text.split(";")
        if len(entries) != rows * cols:
            raise ParseError(
                f"expected {rows * cols} complex entries, got {len(entries)}", self.no, col
            )
        out = np.empty(rows * cols, dtype=complex)
        for i, entry in enumerate(entries):
            parts = entry.split(",")
            if len(parts) != 2:
                raise ParseError(f"bad complex entry {entry!r}", self.no, col)
            try:
                z = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ParseError(f"bad number in entry {entry!r}", self.no, col) from None
            if not cmath.isfinite(z):
                raise ParseError(f"non-finite entry {entry!r}", self.no, col)
            out[i] = z
        return out.reshape(rows, cols)


def format_complex_data(matrix) -> str:
    """Row-major `re,im;re,im;...` with repr floats, so parsing is exact."""
    m = np.asarray(matrix, dtype=complex).reshape(-1)
    return ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in m)
