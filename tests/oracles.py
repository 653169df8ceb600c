"""Independent reference computations shared by the test modules, and the
bitwise comparison the differential tests hold results to.

These are deliberately written against the formulas directly (arbitrary
precision where it matters) and kept free of any imports from the package
internals they check.
"""

import dataclasses
import struct
from collections.abc import Mapping
from itertools import chain
from operator import attrgetter

import mpmath as mp
import numpy as np

_EXACT = frozenset({int, bool, str, type(None)})  # == on these is bitwise


def same_bits(a, b) -> bool:
    """Whether a and b are equal bit for bit. Floats compare by their 8
    bytes, so -0.0 differs from 0.0 and a nan equals a nan of the same bits.
    Mappings compare key by key, in any order; sequences item by item,
    dataclasses field by field (a field kept out of comparisons, such as a
    cached hash, is skipped) and numpy arrays by dtype, shape and bytes;
    anything else by ==. Types must match at every level."""
    return _same_column([a], [b])


def _same_column(a: list, b: list) -> bool:
    """same_bits of a[k] and b[k] for every k, one level of the structure
    at a time: the items of all the sequences, the values of all the
    mappings and each field of all the dataclasses form one column each, so
    a list of thousands of records costs a few calls per field."""
    kinds = set(map(type, a))
    if len(a) != len(b) or kinds != set(map(type, b)):
        return False
    if len(kinds) > 1:  # the items of each type form a column of their own
        at = list(map(type, a))
        return at == list(map(type, b)) and all(
            _same_column(*([v for v, k in zip(c, at) if k is kind] for c in (a, b)))
            for kind in kinds
        )
    if not kinds or kinds <= _EXACT:
        return a == b
    (kind,) = kinds
    if issubclass(kind, float):
        fmt = f"<{len(a)}d"
        return struct.pack(fmt, *a) == struct.pack(fmt, *b)
    if issubclass(kind, (tuple, list)):
        return list(map(len, a)) == list(map(len, b)) and _same_column(
            list(chain.from_iterable(a)), list(chain.from_iterable(b))
        )
    if issubclass(kind, np.ndarray):
        return all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(a, b)
        )
    if issubclass(kind, Mapping):
        return all(x.keys() == y.keys() for x, y in zip(a, b)) and _same_column(
            list(chain.from_iterable(x.values() for x in a)),
            [y[k] for x, y in zip(a, b) for k in x],
        )
    if dataclasses.is_dataclass(kind):
        return all(
            _same_column(list(map(get, a)), list(map(get, b)))
            for get in (attrgetter(f.name) for f in dataclasses.fields(kind) if f.compare)
        )
    return a == b


def per_round_calls(calls) -> list:
    """The (row, values) pair of every round that metrics-sink calls
    (row, values, last) stand for. A call whose values are a tuple stands
    for rounds row.t..last, each with the row's fields, its own t and the
    call's values. A block call, whose values are a (k, n) array, stands for
    its k rounds, the last of them last: round r of the block gets entry r
    of each field that is an array (a column), the other fields as they are,
    and row r of the values as a tuple of floats."""
    pairs = []
    for row, x, last in calls:
        if isinstance(x, tuple):
            pairs.extend(
                (dataclasses.replace(row, t=s), x) for s in range(row.t, last + 1)
            )
            continue
        k = len(x)
        fields = [getattr(row, f.name) for f in dataclasses.fields(row)]
        cols = [v.tolist() if isinstance(v, np.ndarray) else [v] * k for v in fields]
        assert list(map(len, cols)) == [k] * len(cols), "a column of another length"
        assert cols[0] == list(range(last - k + 1, last + 1)), "rows not t..last"
        pairs.extend(zip(map(type(row), *cols), map(tuple, x.tolist())))
    return pairs


def snapshot_keys(window):
    """Each snapshot's edge keys u*n + v, as ``graphs.fold_core`` takes a
    round."""
    for g in window:
        yield np.array([i * g.n + j for i, j in g.edges.tolist()], dtype=np.intp)


def edge_set(edges) -> frozenset:
    """The rows of an (m, 2) edge array as a frozenset of (i, j) tuples."""
    return frozenset(map(tuple, edges.tolist()))


def edge_list(g) -> tuple:
    """A snapshot's edges as a tuple of (i, j) pairs, i < j, in sorted order."""
    return tuple(sorted(edge_set(g.edges)))


def degrees(g) -> tuple:
    """Each node's degree in a snapshot, its self-loop counted, so an
    isolated node has degree 1."""
    deg = [1] * g.n
    for i, j in g.edges.tolist():
        deg[i] += 1
        deg[j] += 1
    return tuple(deg)


def connected(n, edges) -> bool:
    """Whether the graph on nodes 0..n-1 with the given edges is connected,
    by breadth-first search."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        reached = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    reached.append(v)
        frontier = reached
    return len(seen) == n


def bound_oracle(n, B, D, alpha, beta, eps, w0, v20, xinf0):
    """Arbitrary-precision evaluation of the convergence-time bound."""
    with mp.workdps(60):
        n, B, D = mp.mpf(n), mp.mpf(B), mp.mpf(D)
        alpha, beta, eps = mp.mpf(alpha), mp.mpf(beta), mp.mpf(eps)
        w0, v20, xinf0 = mp.mpf(w0), mp.mpf(v20), mp.mpf(xinf0)
        est = mp.power(2, 2 / (1 - alpha)) * mp.power(
            mp.ceil(32 * B + 8 * B * w0), 1 / (beta - alpha)
        )
        init = mp.power(32 * B * xinf0, 2 / (1 - alpha))
        mix = mp.power(300 * n**3 * D * B, 1 / (1 - beta))
        transient = mp.power(2, 1 / (1 - beta)) * (est + init + 11 * B + mix)
        if v20 > 0 and eps < v20:
            s_log = mp.power(
                150 * n**3 * D * B * mp.log(v20 / eps), 1 / (1 - beta)
            )
        else:
            s_log = mp.mpf(0)
        s_pow = mp.power(8 * mp.power(n, mp.mpf("1.5")) / eps, 1 / alpha)
        return transient + max(s_log, s_pow)


REFERENCE_INPUTS = dict(
    n=3, B=1, D=3.0, alpha=0.25, beta=0.5, epsilon=0.1,
    w0=1.0, v20=0.8660254, xinf0=1.0,
)
# bound_oracle value for REFERENCE_INPUTS, frozen at 60 decimal digits
REFERENCE_VALUE = 32286861276.1815737754733170303
