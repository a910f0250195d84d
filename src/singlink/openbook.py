"""Horizontal genus-one open books of the two link families.

The cusp open book has page a torus with sum(n_i - 2) boundary components,
built from k planar pieces glued in a cycle along curves delta_0, ...,
delta_{k-1}; the boundary-parallel curves between delta_{i-1} and delta_i
are gamma_{i,1}, ..., gamma_{i,n_i-2}.  The monodromy is one right-handed
twist along every delta and every gamma.  The elliptic open book has the
same page genus, one piece with n boundary components and one
boundary-parallel twist at each.

The open book is no object: every function here takes the family and
reads the page off ``family.page_pieces()``, the homology of the total
space in one pass over the pieces.  A boundary is labeled (i, j), pieces
numbered from 1, and a twist curve is the pair ("delta", i) or ("gamma",
(i, j)), so the labels, in order, are the gamma entries of ``twist_word``.
Curves are modeled through their classes in the first homology of the
page together with the intersection form; that is enough for the
monodromy action.  ``curve_homology_classes`` returns the page basis and
those classes as plain values: the basis names and two dicts of int
tuples.  ``openbook_report`` writes the ``openbook`` subcommand's output.
"""
from __future__ import annotations

from .families import Family, SizeLimitExceeded
from .linalg import AbelianGroup, IntMatrix, two_column_cokernel

__all__ = [
    "BOUNDARY_LIMIT",
    "PAGE_GENUS",
    "BoundaryLabel",
    "twist_word",
    "curve_names",
    "openbook_report",
    "curve_homology_classes",
    "homological_monodromy_action",
    "openbook_homology",
]

BoundaryLabel = tuple[int, int]

# Most boundary components an open book may have: the family's
# boundary_count, n for Elliptic(n) and sum(n_i - 2) for a cusp word.  A
# larger page is refused before any of it is built, since every boundary
# carries a twist and a relation.
BOUNDARY_LIMIT = 1_000
PAGE_GENUS = 1


def _page(family: Family) -> tuple[int, tuple[int, ...]]:
    """``family.page_pieces()``, the one place that refuses a page over
    BOUNDARY_LIMIT, before any piece is built."""
    if family.boundary_count > BOUNDARY_LIMIT:
        raise SizeLimitExceeded(
            f"the open book of {family.label} has more boundary components "
            f"than the limit of {BOUNDARY_LIMIT:,}"
        )
    return family.page_pieces()


def _labels(pieces: tuple[int, ...]) -> list[BoundaryLabel]:
    """(i, j) for the j-th boundary on piece i, pieces numbered from 1."""
    return [(i, j) for i, b in enumerate(pieces, start=1) for j in range(1, b + 1)]


def _word(deltas: int, pieces: tuple[int, ...]) -> list[tuple[str, int | BoundaryLabel]]:
    """The twist word: ("delta", i) for each delta, then ("gamma", (i, j))
    for the j-th boundary on piece i, in label order."""
    return [("delta", i) for i in range(deltas)] + [("gamma", lb) for lb in _labels(pieces)]


def twist_word(family: Family) -> tuple[tuple[str, int | BoundaryLabel], ...]:
    """The ordered right-handed twist word, deltas first.

    >>> from singlink.families import Cusp
    >>> twist_word(Cusp((4,)))
    (('delta', 0), ('gamma', (1, 1)), ('gamma', (1, 2)))
    """
    return tuple(_word(*_page(family)))


def curve_names(family: Family, alphabet=("delta", "gamma", "_")) -> list[str]:
    """The twist word's names in an alphabet (delta, gamma, separator).
    A page of one piece prints its gammas gamma{j}, any other page
    gamma{i}{separator}{j}; the text rendering uses ("δ", "γ", ",").

    >>> from singlink.families import Cusp
    >>> curve_names(Cusp((4,)), ("δ", "γ", ","))
    ['δ0', 'γ1', 'γ2']
    """
    delta, gamma, sep = alphabet
    deltas, pieces = _page(family)
    one_piece = len(pieces) == 1
    return [
        f"{delta}{x}" if kind == "delta" else f"{gamma}{x[1]}" if one_piece
        else f"{gamma}{x[0]}{sep}{x[1]}"
        for kind, x in _word(deltas, pieces)
    ]


def openbook_report(family: Family, as_json: bool = False) -> dict | str:
    """The open book as JSON (page genus, boundary count and the twist
    word's names) or as one line: the twist word as Dehn twists, then the page.

    >>> from singlink.families import Cusp
    >>> openbook_report(Cusp((4,)))
    'D(δ0)·D(γ1)·D(γ2), page: genus 1, 2 boundary components'
    """
    count = family.boundary_count
    if as_json:
        return {"genus": PAGE_GENUS, "boundaries": count, "word": curve_names(family)}
    word = "·".join(f"D({name})" for name in curve_names(family, ("δ", "γ", ",")))
    plural = "component" if count == 1 else "components"
    return f"{word}, page: genus {PAGE_GENUS}, {count} boundary {plural}"


def curve_homology_classes(family: Family) -> tuple[tuple[str, ...], dict, dict]:
    """(basis names, curve classes, boundary classes): the basis of
    H_1(page), and the classes of the twist curves and of the boundaries on
    it, keyed by the (kind, label) pairs of the twist word and by the
    boundary labels.

    The basis is (l, d, e_1, ..., e_{b-1}): l is a longitude crossing every
    delta once, d is the class of delta_0 (for the elliptic page, the dual
    torus generator), and the e_s are the first b-1 boundary classes taken
    with their counterclockwise orientation; the last boundary class equals
    minus their sum.  The intersection form pairs <l, d> = 1 and every
    other two basis vectors to 0, so the boundary classes lie in its
    radical.
    """
    deltas, pieces = _page(family)
    labels, word = _labels(pieces), _word(deltas, pieces)
    b = len(labels)  # at least 1 for every family
    rank = 2 * PAGE_GENUS + b - 1
    names = ("l", "d") + tuple(f"e{s}" for s in range(1, b))
    boundary_classes: dict[BoundaryLabel, tuple[int, ...]] = {
        label: tuple([int(j == 2 + s) for j in range(rank)]) for s, label in enumerate(labels[:-1])
    }
    boundary_classes[labels[-1]] = (0, 0) + (-1,) * (b - 1)  # minus the sum of the e-units

    classes = {(kind, x): boundary_classes[x] for kind, x in word if kind == "gamma"}
    by_piece: dict[int, list[BoundaryLabel]] = {}
    for label in labels:
        by_piece.setdefault(label[0], []).append(label)
    acc = (0, 1) + (0,) * (rank - 2)  # [delta_0] = d
    for kind, i in word:  # the deltas come first, in index order
        if kind == "delta":
            # planar piece relation: delta_i adds piece i's boundary classes
            for label in by_piece.get(i, ()):
                acc = tuple(a + x for a, x in zip(acc, boundary_classes[label]))
            classes[kind, i] = acc
    return names, classes, boundary_classes


def homological_monodromy_action(family: Family) -> IntMatrix:
    """Product of the twists over the twist word (columns = images).

    A right-handed twist along c acts as x -> x + <x, c> c.  Every twist
    curve has l-coefficient 0, so any two pair to 0, the twists commute and
    their product is x -> x + sum <x, c> c.  Since <x, c> = x_l c_d, only
    the l column moves, to l + sum c_d c: each delta adds its class and each
    gamma adds nothing.  The elliptic open book therefore always returns
    the identity matrix.
    """
    names, curve_classes, _ = curve_homology_classes(family)
    r = len(names)
    image = [int(i == 0) for i in range(r)]
    for curve in twist_word(family):
        c = curve_classes[curve]
        image = [x + c[1] * y for x, y in zip(image, c)]
    return tuple(tuple(image[i] if j == 0 else int(i == j) for j in range(r)) for i in range(r))


def openbook_homology(family: Family) -> AbelianGroup:
    """First homology of the 3-manifold carrying the open book, read off
    ``family.page_pieces()`` alone.

    The mapping torus of the page has H_1 generated by the page basis and
    the section class t, with relations (phi - 1)x for every basis vector
    x.  Gluing in the binding adds one meridian relation per boundary: t = 0
    at the base, which eliminates t, and [L] = [base] + (the deltas crossed
    between the two pieces) at every other boundary L.  Substituting these
    away for every L but the last (Tietze elimination) leaves the
    generators l, d and e_1, and gives every boundary on piece P one class
    c_P: e_1 on the base's piece, and crossing delta_m adds its class
    d + S_m, where S_m is the sum of the boundary classes on pieces 1..m.
    All b boundary classes sum to 0 on the page, so S_m is 0 from the last
    piece with a boundary onward.  H_1 is presented on l, d and e_1 by
    (phi - 1)l, the sum of the delta classes (see
    homological_monodromy_action), and by the last meridian relation,
    sum over P of n_P c_P for n_P boundaries on P.  With b = 1 there is no
    e_1: the one boundary class is 0, so every delta class is d.
    linalg.two_column_cokernel reads the group off the minors of that
    matrix of at most 3 rows and 2 columns, with no Smith normal form.

    One loop over the pieces from the base's to the last nonempty one does
    this with O(k) additions for k pieces.  Elliptic(1000) takes about
    0.01 ms and (3,)^1000 about 1 ms (best of 3, Python 3.11).
    """
    deltas, pieces = _page(family)
    if sum(pieces) == 1:  # no e_1: the one boundary class is 0, so each delta is d
        return two_column_cokernel(((0,), (deltas,)) if deltas else ((), ()))
    filled = [p for p, n in enumerate(pieces) if n]
    cd, ce = 0, 1  # c_P in (d, e_1); every page class has l-coefficient 0
    sd = se = 0  # S_m
    ld, le = deltas, 0  # (phi - 1)l: d per delta, plus each nonzero S_m
    for n in pieces[filled[0] : filled[-1]]:
        sd, se = sd + n * cd, se + n * ce
        ld, le = ld + sd, le + se
        cd, ce = cd + 1 + sd, ce + se  # cross delta_m = d + S_m
    n = pieces[filled[-1]]
    columns = [(0, ld, le)] if deltas else []
    columns.append((0, sd + n * cd, se + n * ce))  # the last meridian relation
    return two_column_cokernel(tuple(tuple(col[r] for col in columns) for r in range(3)))
