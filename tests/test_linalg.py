import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from torusrep.linalg import nullspace


def bareiss_nullspace(rows, ncols):
    """Reference oracle: dense fraction-free (Bareiss) elimination with
    back substitution over rationals; one kernel vector per free column,
    1 in that column, ordered by free column."""
    mat = []
    for row in rows:
        if all(x == 0 for x in row):
            continue
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        ints = [int(x * denom) for x in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        mat.append([v // g for v in ints])
    nrows = len(mat)
    pivot_cols, prev, r = [], 1, 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = mat[r][c]
        # the Bareiss step also rescales rows with a zero in the pivot
        # column, which keeps every division exact
        for i in range(r + 1, nrows):
            f = mat[i][c]
            for j in range(c, ncols):
                mat[i][j] = (piv * mat[i][j] - f * mat[r][j]) // prev
        pivot_cols.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    basis = []
    for f in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for k in range(len(pivot_cols) - 1, -1, -1):
            c = pivot_cols[k]
            if c > f:
                continue
            s = sum(mat[k][j] * vec[j] for j in range(c + 1, ncols) if vec[j])
            vec[c] = -Fraction(s) / mat[k][c]
        basis.append(tuple(vec))
    return basis


def mat_vec(rows, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def sparse(rows):
    """The nonzero entries of dense rows as {column: value} dicts."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense(basis, ncols):
    """Sparse kernel vectors as dense tuples."""
    return [tuple(v.get(c, Fraction(0)) for c in range(ncols)) for v in basis]


def dense_nullspace(rows, ncols):
    """nullspace of dense rows, densified; also checks the sparse output
    format: Fraction values, no stored zeros, columns in range."""
    basis = nullspace(sparse(rows), ncols)
    assert isinstance(basis, list)
    for v in basis:
        assert all(type(x) is Fraction and x != 0 for x in v.values())
        assert all(0 <= c < ncols for c in v)
    return dense(basis, ncols)


def test_simple_kernels():
    rows = [[Fraction(1), Fraction(1), Fraction(0)]]
    basis = dense_nullspace(rows, 3)
    assert len(basis) == 2
    for v in basis:
        assert all(x == 0 for x in mat_vec(rows, v))
    assert nullspace([{0: 1, 1: 1}], 3) == [{1: 1, 0: -1}, {2: 1}]

    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert nullspace(sparse(rows), 2) == []

    assert nullspace([], 4) == [{c: 1} for c in range(4)]
    assert nullspace([{}, {}], 2) == [{0: 1}, {1: 1}]


def test_sparse_row_forms():
    # explicit zeros, unsorted keys, empty rows and int entries all read as
    # the same matrix
    want = [{1: 1, 0: Fraction(-3, 2)}, {2: 1}, {3: 1}]
    assert nullspace([{2: Fraction(1, 2), 1: Fraction(1)}, {3: 0, 2: 0}], 4) == [
        {0: 1}, {2: 1, 1: Fraction(-1, 2)}, {3: 1}]
    assert nullspace([{3: 0}, {1: 3, 0: 0, 2: 0}], 4) == [{0: 1}, {2: 1}, {3: 1}]
    forms = [
        [{0: 2, 1: 3, 2: 0}, {}],
        [{}, {2: Fraction(0), 1: Fraction(3), 0: Fraction(2)}],
        [{1: Fraction(1, 2), 0: Fraction(1, 3)}, {2: 0, 3: 0}],
    ]
    for rows in forms:
        assert nullspace(rows, 4) == want


def test_rational_entries():
    rows = [[Fraction(1, 2), Fraction(1, 3), Fraction(-1)],
            [Fraction(3), Fraction(2), Fraction(-5)]]
    basis = nullspace(sparse(rows), 3)
    assert len(basis) == 1
    v = dense(basis, 3)[0]
    assert all(x == 0 for x in mat_vec(rows, v))
    assert v == (Fraction(2), Fraction(-3), Fraction(0)) or v[2] == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_matrices_kernel_property(seed):
    rng = random.Random(seed)
    m, n = rng.randrange(1, 7), rng.randrange(1, 7)
    rows = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(n)]
            for _ in range(m)]
    basis = dense_nullspace(rows, n)
    for v in basis:
        assert all(x == 0 for x in mat_vec(rows, v))
    # rank-nullity against a plain fraction Gaussian elimination oracle
    work = [list(r) for r in rows]
    rnk = 0
    for c in range(n):
        piv = None
        for i in range(rnk, m):
            if work[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        work[rnk], work[piv] = work[piv], work[rnk]
        pr = work[rnk]
        for i in range(m):
            if i != rnk and work[i][c] != 0:
                f = work[i][c] / pr[c]
                work[i] = [a - f * b for a, b in zip(work[i], pr)]
        rnk += 1
    assert len(basis) == n - rnk
    # independence: some column set restricts the basis to the identity
    marker_cols = []
    for c in range(n):
        col = [v[c] for v in basis]
        if col.count(1) == 1 and all(x in (0, 1) for x in col):
            marker_cols.append(c)
    hit = set()
    for c in marker_cols:
        hit.add(next(i for i, v in enumerate(basis) if v[c] == 1))
    assert hit == set(range(len(basis)))


BIG = 10**30
entries = st.one_of(
    st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1)]),
    st.fractions(min_value=-BIG, max_value=BIG, max_denominator=BIG),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)


@st.composite
def matrices(draw):
    """Wide and tall shapes, possibly no rows, with zero and repeated rows
    mixed in."""
    ncols = draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=9))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(rows[draw(st.integers(0, len(rows) - 1))]))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [Fraction(0)] * ncols)
    return rows, ncols


@st.composite
def sparse_forms(draw, rows, ncols):
    """Sparse rows for the dense rows: each row's entries in a drawn column
    order, with some of its zeros kept as explicit entries."""
    out = []
    for row in rows:
        cols = draw(st.permutations(range(ncols)))
        keep = draw(st.lists(st.booleans(), min_size=ncols, max_size=ncols))
        out.append({c: row[c] for c in cols if row[c] or keep[c]})
    return out


@settings(max_examples=200, deadline=None)
@given(st.data(), matrices())
def test_nullspace_matches_bareiss_oracle(data, case):
    rows, ncols = case
    assert dense_nullspace(rows, ncols) == bareiss_nullspace(rows, ncols)
    form = data.draw(sparse_forms(rows, ncols))
    assert dense(nullspace(form, ncols), ncols) == bareiss_nullspace(rows, ncols)


def test_nullspace_matches_bareiss_on_sparse_unit_systems():
    # the shape of the fixed-space systems: many more columns than nonzero
    # entries per row, all entries +-1
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 40), rng.randrange(1, 60)
        rows = [[Fraction(0)] * ncols for _ in range(nrows)]
        for row in rows:
            for _ in range(rng.randrange(0, 4)):
                row[rng.randrange(ncols)] = Fraction(rng.choice((1, -1)))
        assert dense_nullspace(rows, ncols) == bareiss_nullspace(rows, ncols)
