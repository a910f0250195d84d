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
from .linalg import AbelianGroup, IntMatrix, smith_normal_form

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


def curve_name(curve: TwistCurve) -> str:
    if isinstance(curve, DeltaCurve):
        return f"delta{curve.index}"
    if isinstance(curve.label, tuple):
        return f"gamma{curve.label[0]}_{curve.label[1]}"
    return f"gamma{curve.label}"


def curve_text(curve: TwistCurve) -> str:
    if isinstance(curve, DeltaCurve):
        return f"δ{curve.index}"
    if isinstance(curve.label, tuple):
        return f"γ{curve.label[0]},{curve.label[1]}"
    return f"γ{curve.label}"


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
        return "·".join(f"D({curve_text(c)})" for c in self.twist_word)

    def to_json_dict(self) -> dict:
        return {
            "genus": self.page_genus,
            "boundaries": self.boundary_count,
            "word": [curve_name(c) for c in self.twist_word],
        }


class PageHomologyData(Record):
    """Basis of H_1(page), intersection form, and the twist-curve classes.

    The basis is (l, d, e_1, ..., e_{b-1}): l is a longitude crossing every
    delta once, d is the class of delta_0 (for the elliptic page, the dual
    torus generator), and the e_s are the first b-1 boundary classes taken
    with their counterclockwise orientation; the last boundary class equals
    minus their sum.  Boundary classes lie in the radical of the form and
    <l, d> = 1.
    """

    __slots__ = ("basis_names", "intersection_form", "curve_classes", "boundary_classes")

    @property
    def rank(self) -> int:
        return len(self.basis_names)


def _piece_of(label: BoundaryLabel) -> int:
    """Planar piece a boundary sits on; the k = 1 page has the one piece 1."""
    return label[0] if isinstance(label, tuple) else 1


def curve_homology_classes(ob: OpenBookDescription) -> PageHomologyData:
    """Homology classes of the twist curves and the page intersection form."""
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

    form = [[0] * rank for _ in range(rank)]
    form[0][1] = 1
    form[1][0] = -1

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
    return PageHomologyData(names, tuple(tuple(row) for row in form), classes, boundary_classes)


def _twisted_columns(data: PageHomologyData, twist_word) -> dict[int, list[int]]:
    """Columns of the monodromy action that can differ from the identity.

    A right-handed twist along c acts as x -> x + <x, c> c, so composing it
    onto phi is the rank-1 update phi <- phi + (phi c)(Jc)^T with J the
    intersection form: only the columns j with (Jc)_j != 0 change, and a
    class in the radical (Jc = 0) twists as the identity and is skipped.
    Those columns lie in the support of J, so phi is kept as the identity
    plus its columns over that support, keyed by index.  The nonzeros of J
    are read once, and Jc is summed over them alone.
    """
    entries = [
        (j, k, f) for j, row in enumerate(data.intersection_form) for k, f in enumerate(row) if f
    ]
    cols = {j: [1 if i == j else 0 for i in range(data.rank)] for j, _, _ in entries}
    for curve in twist_word:
        c = data.curve_classes[curve]
        jc: dict[int, int] = {}
        for j, k, f in entries:
            if c[k]:
                jc[j] = jc.get(j, 0) + f * c[k]
        if not any(jc.values()):
            continue
        phi_c = list(c)  # every column off the support is still a unit vector
        for k, col in cols.items():
            if c[k]:
                phi_c = [p + c[k] * x for p, x in zip(phi_c, col)]
                phi_c[k] -= c[k]
        for j, v in jc.items():
            if v:
                cols[j] = [x + v * y for x, y in zip(cols[j], phi_c)]
    return cols


def homological_monodromy_action(ob: OpenBookDescription) -> IntMatrix:
    """Ordered product of the twists over the twist word (columns = images).

    Built by rank-1 updates (see _twisted_columns): twists along classes in
    the radical of the page form, such as every boundary-parallel gamma,
    are skipped as the identity, and each remaining twist touches only the
    columns where its Jc is nonzero.  The elliptic open book therefore
    always returns the identity matrix.
    """
    data = curve_homology_classes(ob)
    cols = _twisted_columns(data, ob.twist_word)
    rank = data.rank
    return tuple(
        tuple(cols[j][i] if j in cols else int(i == j) for j in range(rank))
        for i in range(rank)
    )


def _section_corrections(ob: OpenBookDescription, data: PageHomologyData):
    """Homology corrections relating boundary sections to the base section.

    An arc from the first boundary to boundary L, pushed once around the
    mapping torus, is dragged by every twist it crosses: it leaves through
    the boundary-parallel twists at the base, crosses the delta curves of
    every piece strictly between the two boundaries, and enters through the
    twists at L.  The correction is the signed sum of the corresponding
    curve classes; the meridian relation at L is t + correction = 0.
    """
    labels = ob.boundary_labels
    base = labels[0]
    delta_cls = {
        c.index: data.curve_classes[c]
        for c in ob.twist_word
        if isinstance(c, DeltaCurve)
    }

    # The labels run piece by piece, so the deltas crossed on the way to one
    # boundary are those crossed on the way to the one before, and more.
    corrections = {}
    corr = list(data.boundary_classes[base])
    crossed = _piece_of(base)
    for label in labels[1:]:
        for m in range(crossed, _piece_of(label)):
            corr = [a + x for a, x in zip(corr, delta_cls[m])]
        crossed = max(crossed, _piece_of(label))
        corrections[label] = tuple(a - x for a, x in zip(corr, data.boundary_classes[label]))
    return corrections


def openbook_homology(ob: OpenBookDescription) -> AbelianGroup:
    """First homology of the 3-manifold carrying the open book.

    The mapping torus of the page has H_1 generated by the page basis and
    the section class t, with relations (phi - 1)x for every basis vector
    x.  Gluing in the binding adds one meridian relation per boundary:
    t = 0 at the base boundary and t + correction(L) = 0 elsewhere (see
    _section_corrections).  The base relation eliminates t.  For every
    boundary L but the base and the last, correction(L) is -1 on L's own
    generator e_s and 0 on every later one, so it writes e_s through the
    earlier generators.  Substituting these in generator order (Tietze
    elimination) writes every e_s through l, d and e_1, and H_1 is
    presented on those three alone, one row each, by the images of the
    nonzero (phi - 1)e_j columns from the rank-1 twist updates of
    _twisted_columns (at most two, on l and d) and of the last boundary's
    correction.  A correction of any other shape raises RuntimeError.  A
    page with no relation reduces a matrix with no columns.
    """
    from operator import mul

    data = curve_homology_classes(ob)
    relations = []
    for j, col in _twisted_columns(data, ob.twist_word).items():
        col[j] -= 1
        if any(col):
            relations.append(col)
    corrections = _section_corrections(ob, data)
    labels = ob.boundary_labels
    if len(labels) > 1:
        relations.append(corrections[labels[-1]])
    # images[r][g]: coefficient of kept generator r in the image of generator g
    kept = min(data.rank, 3)
    images = [[int(g == r) for g in range(kept)] for r in range(kept)]
    for g in range(kept, data.rank):
        relation = corrections[labels[g - 2]]
        if relation[g] != -1 or any(relation[g + 1 :]):
            raise RuntimeError(
                f"the meridian relation at boundary {labels[g - 2]} does not "
                f"eliminate {data.basis_names[g]}"
            )
        for image in images:  # map stops at the end of image, before g
            image.append(sum(map(mul, relation, image)))
    presentation = tuple(
        tuple(sum(map(mul, col, image)) for col in relations) for image in images
    )
    return smith_normal_form(presentation).cokernel()
