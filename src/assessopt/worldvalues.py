"""Raw world values read into per-key thresholds as the corpus is read: by a fast path that
gives up on any doubt, then by read_rows alone, which names the faults. So a faulty file is
read twice, as is one with a record over two lines or a value such as '"1" ' that csv takes
and the fast path refuses: a two-line-record copy of bench rawref's file loads 3.4-5.1x slower.
A run on thresholds.csv alone neither compiles this module nor loads the array library.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne
from pathlib import Path

from .corpus import numeral, read_lines, read_rows
from .errors import ParseError
from .reference import (WORLDVALUE_COLUMNS, ClassThresholds, DistributionKey,
                        _distribution_key, build_thresholds)

_PIECE = 8192  # characters read a step, each piece then completed to a line end
# The fewest lines of a run, after a piece's first, that the run step takes: on copies of
# rawref's file in runs of 16 to 48 lines, it was slower than the per-line step on shorter.
_SHORT = 24


def load(path: Path) -> dict[DistributionKey, ClassThresholds]:
    """reference.load_worldvalues: the file is read as its docstring says."""
    if (values := _by_blocks(path)) is None:  # a doubt: read_rows reads the whole file
        values, file = {}, str(path)
        for line, row in read_rows(path, WORLDVALUE_COLUMNS):
            value = row.pop()
            key = _distribution_key(row, file, line)
            if not 0 <= value < math.inf:
                raise ParseError(f"value is not a finite non-negative number: {value}",
                                 file=file, line=line)
            if (arr := values.get(key)) is None:  # no throwaway array for each row
                arr = values[key] = array("d")
            arr.append(value)
    # Each key's array is freed once its thresholds are built (rawref: -0.06 MB VmHWM).
    return {key: build_thresholds(values.pop(key)) for key in list(values)}


def _by_blocks(path: Path) -> dict[DistributionKey, array] | None:
    """Each key's values, or None at a doubt: a refused value or key text, a fault, not UTF-8.

    Each piece, its line ends made LF as the text reader ends lines, is taken a run of lines
    that start with one key text (a line's text up to its last comma) at a time, until a
    line with no comma, or a run of fewer than _SHORT lines that is not the piece's first
    (which the piece's start may cut), leaves the rest of it to the per-line step."""
    values, arrays = {}, {}  # arrays: a key text (before a line's last comma) -> its key's array

    def take(head: str, numbers: array) -> None:
        if (arr := arrays.get(head)) is None:  # a new key text, read once by csv:
            # a quote it leaves open takes in ",0", failing a field's parse or width
            _, row = next(rows_from(2, [head + ",0\n"]))
            key = _distribution_key(row[:4], str(path), 2)
            if (arr := values.get(key)) is None:  # a copy: with none of the room extend adds
                arrays[head] = values[key] = array("d", numbers)
                return
            arrays[head] = arr
        arr.extend(numbers)

    try:
        with read_lines(path, WORLDVALUE_COLUMNS) as (file, rows_from, limit):
            while piece := file.read(_PIECE):
                piece += file.readline()  # in place: one piece of text is held at a time
                if "\r" in piece:
                    piece = piece.replace("\r\n", "\n").replace("\r", "\n")
                if piece[-1] != "\n":
                    piece += "\n"  # the last line, with no line end
                at = -1  # the line end before the next line; none before the first
                while at < len(piece) - 1:  # the run step
                    eol = piece.find("\n", at + 1)
                    if (comma := piece.rfind(",", at + 1, eol)) < 0:
                        break
                    key = "\n" + piece[at + 1:comma + 1]
                    end = eol  # the line end after the run
                    while piece.startswith(key, end):  # the run goes on: look further
                        last = piece.rfind(key, end, end + _SHORT * (end - at))
                        end = piece.find("\n", last + 1)
                    texts = piece[at + len(key):end].split(key)  # each line's value
                    n = piece.count("\n", at + 1, end) + 1  # the run's lines
                    if len(texts) < n or n < _SHORT and at >= 0:  # a line starts otherwise,
                        break  # or a short run
                    take(key[1:-1], _numbers(texts, limit))
                    at = end
                if at < len(piece) - 1:
                    _per_line(piece[at + 1:-1].split("\n"), arrays, take, limit)
    except (ParseError, ValueError):
        return None
    return values


def _per_line(lines: list[str], arrays: dict, take, limit: int) -> None:
    """Split each line but a blank one, which csv skips, at its last comma, and take each
    run of lines of one key text as a slice; any other line with no comma is a doubt."""
    parts = list(map(str.rpartition, filter(None, lines), repeat(",")))
    lines.clear()
    keys = list(map(itemgetter(0), parts))
    texts = list(map(itemgetter(2), parts))
    del parts  # the tuples are freed before the floats are made
    if not (n := len(keys)):
        return
    numbers = _numbers(texts, limit)
    i, ends = 0, compress(range(1, n), map(ne, islice(keys, 1, None), keys))
    for end in chain(ends, (n,)):  # i: the run's first line
        if (arr := arrays.get(keys[i])) is None:
            take(keys[i], numbers[i:end])
        else:
            arr.extend(numbers[i:end])
        i = end


def _numbers(texts: list[str], limit: int) -> array:
    """The numbers in the texts after the lines' last commas, without line ends; a
    ValueError unless each is a numeral, finite, non-negative, within the field limit and,
    if the first is quoted, quoted whole."""
    values = texts
    if quoted := texts[0][:1] == '"':  # as csv.QUOTE_ALL writes them
        values = map(str.strip, texts, repeat('"'))
    numbers = array("d", map(float, values))
    # No text is longer than joined, nor has a minus sign where joined has none. Quoted, each
    # starts and ends with a quote if the n - 1 line ends between them are each between two
    # and the last ends with one; as each holds a number, 2 * n quotes are then two each.
    joined, n = numeral("\n".join(texts)), len(texts)
    if not (len(joined) <= limit and "-" not in joined and sum(numbers) < math.inf
            and (not quoted or joined.count('"') == 2 * n
                 and joined.count('"\n"') == n - 1 and joined[-1] == '"')):
        raise ValueError("a value that csv may read otherwise, or out of range")
    return numbers
