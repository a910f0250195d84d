"""Horizontal genus-one open books of the two link families.

The cusp open book has page a torus with sum(n_i - 2) boundary components,
built from k planar pieces glued in a cycle along curves delta_0, ...,
delta_{k-1}; the boundary-parallel curves between delta_{i-1} and delta_i
are gamma_{i,1}, ..., gamma_{i,n_i-2}.  The monodromy is one right-handed
twist along every delta and every gamma.  The elliptic open book has the
same page genus, n boundary components and one boundary-parallel twist at
each.

Curves are modeled through their classes in the first homology of the page
together with the intersection form; that is enough for the monodromy
action and for the homology of the total space.
"""
from __future__ import annotations

from ._record import Record
from .families import Family, SizeLimitExceeded
from .linalg import AbelianGroup, IntMatrix, two_column_cokernel

__all__ = [
    "BOUNDARY_LIMIT",
    "BoundaryLabel",
    "DeltaCurve",
    "GammaCurve",
    "OpenBookDescription",
    "PageHomologyData",
    "curve_homology_classes",
    "homological_monodromy_action",
    "openbook_homology",
]

BoundaryLabel = int | tuple[int, int]

# Most boundary components an open book may have: n for Elliptic(n) and
# sum(n_i - 2) for a cusp word.  A larger page is refused before any of it
# is built, since every boundary carries a twist and a relation.
BOUNDARY_LIMIT = 1_000


class DeltaCurve(Record):
    """Twist curve where two page pieces were glued; delta_index in text."""

    __slots__ = ("index",)


class GammaCurve(Record):
    """Boundary-parallel twist curve at the labeled boundary."""

    __slots__ = ("label",)


TwistCurve = DeltaCurve | GammaCurve


def curve_name(curve: TwistCurve, alphabet=("delta", "gamma", "_")) -> str:
    """The curve's label in an alphabet (delta, gamma, separator); the text
    rendering uses ("δ", "γ", ",")."""
    delta, gamma, sep = alphabet
    if isinstance(curve, DeltaCurve):
        return f"{delta}{curve.index}"
    if isinstance(curve.label, tuple):
        return f"{gamma}{curve.label[0]}{sep}{curve.label[1]}"
    return f"{gamma}{curve.label}"


class OpenBookDescription(Record):
    """The horizontal open book of a family: a genus-one page, its labeled
    boundaries and the ordered right-handed twist word, all read off
    ``family.page_pieces()``.

    A page with one piece labels its boundaries 1, ..., b; otherwise the
    j-th boundary on piece i is (i, j).  The word is delta_0, ..., then one
    gamma per boundary in label order.

    >>> from singlink.families import Cusp
    >>> OpenBookDescription(Cusp((4,))).word_text()
    'D(δ0)·D(γ1)·D(γ2)'
    """

    __slots__ = ("family", "boundary_labels", "twist_word")
    page_genus = 1

    def __init__(self, family: Family):
        deltas, pieces = family.page_pieces()
        if sum(pieces) > BOUNDARY_LIMIT:
            raise SizeLimitExceeded(
                f"the open book of {family.label} has more boundary components "
                f"than the limit of {BOUNDARY_LIMIT:,}"
            )
        if len(pieces) == 1:
            labels: tuple[BoundaryLabel, ...] = tuple(range(1, pieces[0] + 1))
        else:
            labels = tuple(
                (i, j) for i, b in enumerate(pieces, start=1) for j in range(1, b + 1)
            )
        twists = tuple(DeltaCurve(i) for i in range(deltas))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "boundary_labels", labels)
        object.__setattr__(self, "twist_word", twists + tuple(map(GammaCurve, labels)))

    @property
    def boundary_count(self) -> int:
        return len(self.boundary_labels)

    def word_text(self) -> str:
        return "·".join(f"D({curve_name(c, ('δ', 'γ', ','))})" for c in self.twist_word)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.page_genus,
            "boundaries": self.boundary_count,
            "word": [curve_name(c) for c in self.twist_word],
        }


class PageHomologyData(Record):
    """Basis of H_1(page) and the twist-curve and boundary classes.

    The basis is (l, d, e_1, ..., e_{b-1}): l is a longitude crossing every
    delta once, d is the class of delta_0 (for the elliptic page, the dual
    torus generator), and the e_s are the first b-1 boundary classes taken
    with their counterclockwise orientation; the last boundary class equals
    minus their sum.  The intersection form is read off the rank: <l, d> = 1
    and every other pairing of basis vectors is 0, so the boundary classes
    lie in its radical.
    """

    __slots__ = ("basis_names", "curve_classes", "boundary_classes")

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    @property
    def intersection_form(self) -> IntMatrix:
        pairing, r = {(0, 1): 1, (1, 0): -1}, self.rank
        return tuple(tuple(pairing.get((i, j), 0) for j in range(r)) for i in range(r))


def _piece_of(label: BoundaryLabel) -> int:
    """Planar piece a boundary sits on; the k = 1 page has the one piece 1."""
    return label[0] if isinstance(label, tuple) else 1


def curve_homology_classes(ob: OpenBookDescription) -> PageHomologyData:
    """Homology classes of the twist curves and of the boundaries."""
    b = ob.boundary_count
    rank = 2 * ob.page_genus + max(b - 1, 0)
    names = ("l", "d") + tuple(f"e{s}" for s in range(1, b))

    def unit(i: int) -> tuple[int, ...]:
        return tuple(1 if j == i else 0 for j in range(rank))

    boundary_classes: dict[BoundaryLabel, tuple[int, ...]] = {
        label: unit(2 + s) for s, label in enumerate(ob.boundary_labels[:-1])
    }
    if b:
        # minus the sum of the e-units
        boundary_classes[ob.boundary_labels[-1]] = (0, 0) + (-1,) * (b - 1)

    classes: dict[TwistCurve, tuple[int, ...]] = {}
    for curve in ob.twist_word:
        if isinstance(curve, GammaCurve):
            classes[curve] = boundary_classes[curve.label]
    deltas = sorted(
        (c for c in ob.twist_word if isinstance(c, DeltaCurve)), key=lambda c: c.index
    )
    if deltas:
        acc = list(unit(1))  # [delta_0] = d
        by_piece: dict[int, list[BoundaryLabel]] = {}
        for label in ob.boundary_labels:
            by_piece.setdefault(_piece_of(label), []).append(label)
        for curve in deltas:
            if curve.index > 0:
                # planar piece relation: crossing piece i adds its boundary classes
                for label in by_piece.get(curve.index, []):
                    acc = [a + x for a, x in zip(acc, boundary_classes[label])]
            classes[curve] = tuple(acc)
    return PageHomologyData(names, classes, boundary_classes)


def homological_monodromy_action(ob: OpenBookDescription) -> IntMatrix:
    """Product of the twists over the twist word (columns = images).

    A right-handed twist along c acts as x -> x + <x, c> c.  Every twist
    curve has l-coefficient 0, so any two pair to 0, the twists commute and
    their product is x -> x + sum <x, c> c.  Since <x, c> = x_l c_d, only
    the l column moves, to l + sum c_d c: each delta adds its class and each
    gamma adds nothing.  The elliptic open book therefore always returns
    the identity matrix.
    """
    data = curve_homology_classes(ob)
    r = data.rank
    image = [int(i == 0) for i in range(r)]
    for curve in ob.twist_word:
        c = data.curve_classes[curve]
        image = [x + c[1] * y for x, y in zip(image, c)]
    return tuple(tuple(image[i] if j == 0 else int(i == j) for j in range(r)) for i in range(r))


def _plus(x, y):
    """The page class x + y, each class given by its image in the kept
    generators l, d and e_1."""
    return tuple([a + c for a, c in zip(x, y)])


def openbook_homology(ob: OpenBookDescription) -> AbelianGroup:
    """First homology of the 3-manifold carrying the open book.

    The mapping torus of the page has H_1 generated by the page basis and
    the section class t, with relations (phi - 1)x for every basis vector
    x.  Gluing in the binding adds one meridian relation per boundary: t = 0
    at the base, which eliminates t, and t + correction(L) = 0 at every
    other boundary L, where correction(L) = [base] + (the deltas crossed
    between the two pieces) - [L].  For every L but the last, that is -1 on
    L's generator e_s and 0 on every later one, and it becomes e_s's image
    in l, d and e_1 (Tietze elimination).  H_1 is presented on those three
    by the images of the nonzero (phi - 1)e_j columns and of the last
    correction, and linalg.two_column_cokernel reads it off the minors of
    that matrix of at most 3 rows and 2 columns, with no Smith normal form.

    One pass over the labels does this with O(b + k) additions of page
    classes (see _plus).  The labels run piece by piece, so delta_m is d
    plus the first n_m boundary classes, those on pieces 1..m; a crossed
    delta with n_m past s would make the relation at s touch e_s again or
    a later generator, and raises RuntimeError.  The only nonzero
    (phi - 1)e_j column is (phi - 1)l, the sum of the delta classes (see
    homological_monodromy_action).  Elliptic(1000) takes about 1.5 ms and
    (3,)^1000 about 7 ms (best of 3, five rounds, Python 3.11).
    """
    from bisect import bisect_right
    from functools import reduce

    labels = ob.boundary_labels
    b = len(labels)
    kept = min(b + 1, 3)
    unit = [tuple(int(r == g) for r in range(kept)) for g in range(kept)]
    zero, d = (0,) * kept, unit[1]
    pieces = [_piece_of(label) for label in labels]
    ordered = sorted(pieces)
    firsts = [zero]  # firsts[n]: the sum of the first n boundary classes

    def reached(m):  # n_m mod b, since all b boundary classes sum to zero
        return bisect_right(ordered, m) % b

    relations = []
    if b > 1:
        firsts.append(unit[2])  # e_1
        correction, crossed = firsts[1], pieces[0]
        for s in range(1, b):
            for m in range(crossed, pieces[s]):
                if reached(m) > s:
                    raise RuntimeError(
                        f"the meridian relation at boundary {labels[s]} does not "
                        f"eliminate e{s + 1}"
                    )
                correction = _plus(correction, _plus(d, firsts[reached(m)]))
            crossed = max(crossed, pieces[s])
            if s < b - 1:  # correction - e_{s+1} = 0
                firsts.append(_plus(firsts[s], correction))
        # the last boundary class is -(e_1 + ... + e_{b-1})
        relations.append(_plus(correction, firsts[b - 1]))
    deltas = [c.index for c in ob.twist_word if isinstance(c, DeltaCurve)]
    if deltas:  # (phi - 1)l, the sum of the delta classes
        relations.insert(0, reduce(_plus, [_plus(d, firsts[reached(m)]) for m in deltas]))
    presentation = tuple(tuple(col[r] for col in relations) for r in range(kept))
    return two_column_cokernel(presentation)
