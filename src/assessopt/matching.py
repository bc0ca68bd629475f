"""Exact maximum-weight b-matching of researchers to products.

Each researcher holds a pool of products, best first, and may take up to its
quota of them; each product goes to at most one researcher. The solver works
on plain dicts keyed by researcher and product id, in three steps:
prune cuts every pool to what an optimum can use, components walks prune's
holders to split the researchers into independent groups, and solve runs
successive longest augmenting paths over one group's weights.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

Pools = dict[str, tuple[str, ...]]
Holders = dict[str, list[str]]  # product -> the researchers holding it


def prune(
    pools: Pools, quota: dict[str, int], holders: Holders
) -> tuple[Pools, Holders, int]:
    """Cut each researcher's pool after its quota-th private entry, until no
    cut moves; return the kept pools, their holders and the number of passes.

    holders names the researchers of every product that two or more of them
    hold; any other product is private from the start. A copy of it is kept
    live: a cut takes the researcher off each dropped product's list, so the
    holders returned are those of the kept pools. An entry is private when
    fewer than two researchers still hold that product. Weights fall strictly
    along a pool, so an optimum never picks an entry below quota private
    ones: one of those is left free and weighs more. Each cut makes more
    entries private, hence the repeated passes.
    """
    holders = {pid: list(rids) for pid, rids in holders.items()}
    kept = dict(pools)
    passes, changed = 0, True
    while changed:
        passes, changed = passes + 1, False
        for rid, pool in kept.items():
            private = 0
            for end, pid in enumerate(pool, 1):
                if len(holders.get(pid, ())) < 2:
                    private += 1
                    if private == quota[rid]:
                        if end < len(pool):
                            for dropped in pool[end:]:
                                if dropped in holders:
                                    holders[dropped].remove(rid)
                            kept[rid] = pool[:end]
                            changed = True
                        break
    return kept, holders, passes


def components(kept: Pools, holders: Holders) -> Iterator[list[str]]:
    """Yield the researchers linked by shared kept products, each group in
    walk order; researchers who kept nothing belong to none. holders is
    prune's: each shared product's researchers among the kept pools."""
    seen: set[str] = set()
    for start, pool in kept.items():
        if start in seen or not pool:
            continue
        seen.add(start)
        members = [start]
        for rid in members:  # the list grows while it is walked
            for pid in kept[rid]:
                for other in holders.get(pid, ()):
                    if other not in seen:
                        seen.add(other)
                        members.append(other)
        yield members


def solve(weights: dict[str, dict[str, int]], room: dict[str, int], owner: dict[str, str]) -> int:
    """Assign one group's products into owner (product -> researcher) so that
    the picked weights sum to the most, by successive longest augmenting
    paths; return the number of edges scanned. weights maps each researcher
    of the group to its products' weights, all positive; room holds each
    researcher's free slots and is used up."""
    scans = 0
    while True:
        best = {rid: 0 for rid in weights if room[rid] > 0}
        via: dict[str, tuple[str, str]] = {}  # researcher -> (previous, product)
        queue = deque((rid, 0) for rid in best)
        end_gain, end = 0, None
        while queue:
            rid, gain = queue.popleft()
            if gain < best[rid]:
                continue  # a later entry carries this researcher's better gain
            scans += len(weights[rid])
            for pid, weight in weights[rid].items():
                holder = owner.get(pid)
                if holder is None:
                    if gain + weight > end_gain:
                        end_gain, end = gain + weight, (rid, pid)
                elif holder != rid:
                    relaxed = gain + weight - weights[holder][pid]
                    if holder not in best or relaxed > best[holder]:
                        best[holder] = relaxed
                        via[holder] = (rid, pid)
                        queue.append((holder, relaxed))
        if end is None:
            return scans
        rid, pid = end
        while rid in via:
            owner[pid] = rid
            rid, pid = via[rid]
        owner[pid] = rid
        room[rid] -= 1
