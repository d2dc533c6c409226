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
import itertools

import numpy as np

from .errors import ParseError, ValidationError

_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",;")


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
        self.fields = fields = {}
        self.read = set()
        col = 1
        for token in raw.split(" "):
            if token:
                key, eq, value = token.partition("=")
                if not eq:
                    if self.verb is not None or fields:
                        raise ParseError(f"stray token {token!r}", no, col)
                    self.verb = token
                elif key in fields:
                    raise ParseError(f"duplicate key {key}=", no, col)
                else:
                    fields[key] = (value, col)
            col += len(token) + 1

    def error(self, message, key=None) -> ParseError:
        """ParseError at the column of `key` (column 1 without one)."""
        return ParseError(message, self.no, self.fields[key][1] if key else 1)

    def located(self, key=None):
        """A context that reports a ValidationError raised inside as a
        ParseError at this line, at the column of `key` (column 1 without
        one)."""
        return _Located(self, key)

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
        """The rows×cols complex matrix of `data=`: `read_matrices` of this
        one field."""
        self.str("data")
        return read_matrices([(self, rows, cols)])[0]


def read_matrices(fields):
    """The complex matrices of `fields`, (line, rows, cols) triples, each the
    rows×cols matrix of that line's `data=`: row-major `re,im;re,im;...`,
    every entry finite. The caller has read each `data=` with `Line.str`.

    When every field holds rows·cols entries and every entry is two parts,
    as the separators show, the parts of all fields go through one `float`
    pass and one finiteness check and are read as complex pairs. Otherwise,
    or when that pass fails, some entry is at fault: the fields are read
    again in order, one entry at a time, and the error names the first
    field at fault and, in it, the first entry at fault, each entry checked
    for two parts, then for numbers, then for finite ones.
    """
    texts, sizes, separators = [], [], []
    for line, rows, cols in fields:
        text = line.fields["data"][0]
        texts.append(text)
        sizes.append(rows * cols)
        separators.append(text.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR))
    total = sum(sizes)
    # a field's separators alternate , ; exactly when it holds n entries of
    # two parts (neither byte occurs in the UTF-8 of another character), and
    # the fields' separators joined by ; alternate exactly when each field's
    # do; the lengths are compared first, so the pattern is never longer
    # than the text
    if [len(seps) for seps in separators] == [2 * n - 1 for n in sizes] and (
        b";".join(separators) == (b",;" * total)[:-1]
    ):
        parts = ";".join(texts).replace(";", ",").split(",")
        try:
            values = np.fromiter(map(float, parts), float, 2 * total)
        except ValueError:
            pass
        else:
            # one byte per part, 0 for one that is not finite
            if 0 not in np.isfinite(values).tobytes():
                # read as complex pairs, each field from its first part on
                starts = itertools.accumulate(sizes, initial=0)
                return [
                    np.ndarray((rows, cols), complex, values, 2 * start * values.itemsize)
                    for (_, rows, cols), start in zip(fields, starts)
                ]
    for (line, _, _), text, size in zip(fields, texts, sizes):
        col = line.fields["data"][1]
        entries = text.split(";")
        if len(entries) != size:
            raise ParseError(f"expected {size} complex entries, got {len(entries)}", line.no, col)
        for entry in entries:
            parts = entry.split(",")
            if len(parts) != 2:
                raise ParseError(f"bad complex entry {entry!r}", line.no, col)
            try:
                z = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ParseError(f"bad number in entry {entry!r}", line.no, col) from None
            if not cmath.isfinite(z):
                raise ParseError(f"non-finite entry {entry!r}", line.no, col)


class _Located:
    """The context of `Line.located`; a class, as it is entered for every
    checked line and a generator-based context costs more."""

    __slots__ = ("line", "key")

    def __init__(self, line, key):
        self.line, self.key = line, key

    def __enter__(self):
        return None

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValidationError):
            raise self.line.error(str(exc), self.key) from exc


def format_complex_data(matrix) -> str:
    """Row-major `re,im;re,im;...` with repr floats, so parsing is exact."""
    m = np.asarray(matrix, dtype=complex).reshape(-1)
    return ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in m)
