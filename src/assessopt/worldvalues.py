"""Raw world values read into per-key thresholds as the corpus is read: by a fast path that
gives up on any doubt, then by read_rows alone, which names the faults. So a faulty file is
read twice, as is one with a record over two lines or a value such as '"1" ' that csv takes
and the block test refuses: a two-line-record copy of bench rawref's file loads 3.4-5.1x slower.
A run on thresholds.csv alone neither compiles this module nor loads the array library.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne
from pathlib import Path

from .corpus import read_lines, read_rows
from .errors import ParseError
from .reference import (WORLDVALUE_COLUMNS, ClassThresholds, DistributionKey,
                        _distribution_key, build_thresholds)

# Lines per step of the fast path: on rawref, 256 raised peak memory 0.02 MB and 512 0.15 MB.
_BLOCK = 192


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
    """Each key's values, or None at a doubt: a refused value or key text, a fault, not UTF-8."""
    values, arrays = {}, {}  # arrays: a key text (before a line's last comma) -> its key's array
    try:
        with read_lines(path, WORLDVALUE_COLUMNS) as (lines, rows_from, limit):
            while block := list(islice(lines, _BLOCK)):
                parts = list(map(str.rpartition, block, repeat(",")))
                block.clear()
                keys = list(map(itemgetter(0), parts))
                if "" in keys:  # csv skips blank lines; any other line with no comma is a doubt
                    parts = [part for part in parts if part[1] or part[2].strip("\r\n")]
                    keys = list(map(itemgetter(0), parts))
                texts = list(map(itemgetter(2), parts))
                del parts  # the tuples are freed before the floats are made
                if not (n := len(keys)):
                    continue
                numbers = _numbers(texts, limit)
                # A run of lines of one key text is taken with one extend of a slice.
                i, ends = 0, compress(range(1, n), map(ne, islice(keys, 1, None), keys))
                for end in chain(ends, (n,)):  # i: the run's first line
                    if (arr := arrays.get(keys[i])) is None:  # a new key text, read once by csv:
                        # a quote it leaves open takes in ",0", failing a field's parse or width
                        _, row = next(rows_from(2, [keys[i] + ",0\n"]))
                        key = _distribution_key(row[:4], str(path), 2)
                        arr = arrays[keys[i]] = values.setdefault(key, array("d"))
                    arr.extend(numbers[i:end])
                    i = end
                del keys, texts, numbers, ends  # ends holds keys: all freed before the next block
    except (ParseError, ValueError):
        return None
    return values


def _numbers(texts: list[str], limit: int) -> array:
    """The numbers in the texts after the lines' last commas; a ValueError unless each is
    finite, non-negative, within the field limit and, if the first is quoted, quoted whole."""
    values = texts
    if quoted := texts[0][:1] == '"':  # as csv.QUOTE_ALL writes them
        values = map(str.strip, texts, repeat('"\r\n'))
    numbers = array("d", map(float, values))
    # No text is longer than joined, nor has a minus sign where joined has none. Quoted, each
    # text starts with a quote if n - 1 line ends (each text's last characters) are followed
    # by one, and ends with one before its line end if n are preceded by one (or the last
    # text ends with one); as each holds a number, 2 * n quotes are then exactly two each.
    joined, n = "".join(texts), len(texts)
    if not (len(joined) <= limit and "-" not in joined and sum(numbers) < math.inf
            and (not quoted or joined.count('"') == 2 * n
                 and joined.count('\n"') + joined.count('\r"') == n - 1
                 and joined.count('"\n') + joined.count('"\r') + (joined[-1:] == '"') == n)):
        raise ValueError("a value that csv may read otherwise, or out of range")
    return numbers
