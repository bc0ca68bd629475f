"""Raw world values read into per-key thresholds, a block of lines at a time.

reference.load_worldvalues imports this module where a run reads a worldvalues.csv, so a run
that reads only thresholds.csv neither compiles it nor loads the array library.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterator

from .corpus import read_lines
from .errors import ParseError
from .reference import (WORLDVALUE_COLUMNS, ClassThresholds, DistributionKey,
                        _distribution_key, build_thresholds)

# Lines per step of load: on rawref, 256 raised peak memory 0.02 MB and 512 0.15 MB.
_BLOCK = 192


def _raising(exc: Exception) -> Iterator[str]:
    raise exc
    yield  # a generator: exc is raised when its first line is asked for


def _blocks(lines: Iterator[str]) -> Iterator[tuple[list[str], Iterator[str]]]:
    """lines in lists of up to _BLOCK, each with the lines that follow it. At text that
    is not UTF-8 the lines read before it come as a last block, whose followers raise
    the fault, and then the fault is raised: the text decoder reads 8 KB at a time, so
    reading the lines one by one meets it just there."""
    while True:
        block: list[str] = []
        try:
            block.extend(islice(lines, _BLOCK))
        except UnicodeDecodeError as exc:
            if block:
                yield block, _raising(exc)
            raise
        if not block:
            return
        yield block, lines


def _block_values(texts: list[str], numbers, limit: int) -> set[int]:
    """Append to numbers, an array("d"), the number in each text after a line's last comma,
    and return the positions of the texts the block test refuses: all but the finite
    non-negative numbers within the csv field limit, and where the first text is quoted,
    all but those quoted whole. A refused text's number is nan."""
    values = iter(texts)
    if quoted := texts[0][:1] == '"':  # as csv.QUOTE_ALL writes them
        values = map(str.strip, texts, repeat('"\r\n'))
    while True:
        try:
            numbers.extend(map(float, values))  # the numbers before a refused text are kept
            break
        except ValueError:
            numbers.append(math.nan)
    # No text is longer than joined, nor has a minus sign where joined has none. Each text
    # but the last ends in a line end, and only there, so quoted, each starts with a quote
    # if n - 1 line ends are followed by one, and ends with one before its line end if n
    # are preceded by one (or the last text ends with one). Where no number is nan these
    # are two quotes or more, so 2 * n quotes in all are exactly two each.
    joined, n = "".join(texts), len(texts)
    if (len(joined) <= limit and "-" not in joined and sum(numbers) < math.inf
            and (not quoted or joined.count('"') == 2 * n
                 and joined.count('\n"') + joined.count('\r"') == n - 1
                 and joined.count('"\n') + joined.count('"\r') + (joined[-1:] == '"') == n)):
        return set()
    return {i for i, (number, text) in enumerate(zip(numbers, texts))
            if not (0 <= number < math.inf and len(text) <= limit) or quoted and not (
                text[:1] == '"' == text.rstrip("\r\n")[-1:] and text.count('"') == 2)}


def load(path: Path) -> dict[DistributionKey, ClassThresholds]:
    """reference.load_worldvalues: the file is read as its docstring says."""
    file = str(path)
    values: dict[DistributionKey, array] = {}
    arrays = {}  # the key text of a one-line record -> its key's array
    with read_lines(path, WORLDVALUE_COLUMNS) as (lines, rows_from, limit):
        first = 2  # the line of the block's first text
        for block, more in _blocks(lines):
            n = len(block)
            parts = list(map(str.rpartition, block, repeat(",")))
            keys = list(map(itemgetter(0), parts))
            texts = list(map(itemgetter(2), parts))
            del parts
            numbers = array("d")
            for j in _block_values(texts, numbers, limit):  # csv reads a refused line, as it
                keys[j] = ""  # does one of the key text "", which no one-line record has
            # A run of lines of one known key text is taken with one extend of a slice.
            i = 0  # the next line to take
            for end in chain(compress(range(1, n), map(ne, islice(keys, 1, None), keys)), (n,)):
                while i < end:
                    if arr := arrays.get(keys[i]):
                        arr.extend(numbers[i:end])
                        i = end
                        continue
                    line = first + i  # csv reads the record from here, on into the file
                    rest = chain(islice(block, i, None), more)
                    record = next(rows_from(line, rest), None)
                    if record is None:  # only blank lines were left
                        i = n
                        continue
                    last, row = record
                    value = row.pop()
                    arr = values.setdefault(_distribution_key(row, file, last), array("d"))
                    if last == line and keys[i]:  # a one-line record: its key text names its key
                        arrays[keys[i]] = arr
                    if not 0 <= value < math.inf:
                        raise ParseError(f"value is not a finite non-negative number: {value}",
                                         file=file, line=last)
                    arr.append(value)
                    i = last - first + 1
            first += max(n, i)
            block.clear()  # the lines and texts of a block are freed before the next is read
            del keys, texts, numbers
    # With arrays cleared, values holds each key's array, freed once its thresholds are
    # built: the thresholds do not add to the arrays' peak (rawref: -0.06 MB VmHWM).
    arrays.clear()
    return {key: build_thresholds(values.pop(key)) for key in list(values)}
