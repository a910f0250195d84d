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

from dataclasses import dataclass, field
from typing import ClassVar

from .families import Cusp, Elliptic, Family, SizeLimitExceeded
from .linalg import AbelianGroup, IntMatrix, cokernel
from .sl2z import CycleWord

__all__ = [
    "BOUNDARY_LIMIT",
    "BoundaryLabel",
    "DeltaCurve",
    "GammaCurve",
    "OpenBookDescription",
    "PageHomologyData",
    "elliptic_openbook",
    "cusp_openbook",
    "curve_homology_classes",
    "homological_monodromy_action",
    "openbook_homology",
]

BoundaryLabel = int | tuple[int, int]

# Most boundary components an open book may have: n for Elliptic(n) and
# sum(n_i - 2) for a cusp word.  A larger page is refused before any of it
# is built, since every boundary carries a twist and a relation.
BOUNDARY_LIMIT = 1_000


@dataclass(frozen=True)
class DeltaCurve:
    """Twist curve where two page pieces were glued; delta_index in text."""

    index: int


@dataclass(frozen=True)
class GammaCurve:
    """Boundary-parallel twist curve at the labeled boundary."""

    label: BoundaryLabel


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


@dataclass(frozen=True)
class OpenBookDescription:
    """The horizontal open book of a family: a genus-one page, its labeled
    boundaries and the ordered right-handed twist word, all read off
    ``family.page_pieces()``.

    A page with one piece labels its boundaries 1, ..., b; otherwise the
    j-th boundary on piece i is (i, j).  The word is delta_0, ..., then one
    gamma per boundary in label order.
    """

    family: Family
    page_genus: ClassVar[int] = 1
    boundary_labels: tuple[BoundaryLabel, ...] = field(init=False)
    twist_word: tuple[TwistCurve, ...] = field(init=False)

    def __post_init__(self):
        deltas, pieces = self.family.page_pieces()
        if sum(pieces) > BOUNDARY_LIMIT:
            raise SizeLimitExceeded(
                f"the open book of {self.family.label} has more boundary components "
                f"than the limit of {BOUNDARY_LIMIT:,}"
            )
        if len(pieces) == 1:
            labels: tuple[BoundaryLabel, ...] = tuple(range(1, pieces[0] + 1))
        else:
            labels = tuple(
                (i, j) for i, b in enumerate(pieces, start=1) for j in range(1, b + 1)
            )
        twists = tuple(DeltaCurve(i) for i in range(deltas))
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


def elliptic_openbook(n: int) -> OpenBookDescription:
    """Torus page with n boundaries, one boundary-parallel twist at each."""
    return OpenBookDescription(Elliptic(n))


def cusp_openbook(word: CycleWord) -> OpenBookDescription:
    """Torus page with sum(n_i - 2) boundaries and the delta/gamma twist word.

    >>> cusp_openbook(CycleWord((4,))).word_text()
    'D(δ0)·D(γ1)·D(γ2)'
    """
    return OpenBookDescription(Cusp(word))


@dataclass(frozen=True)
class PageHomologyData:
    """Basis of H_1(page), intersection form, and the twist-curve classes.

    The basis is (l, d, e_1, ..., e_{b-1}): l is a longitude crossing every
    delta once, d is the class of delta_0 (for the elliptic page, the dual
    torus generator), and the e_s are the first b-1 boundary classes taken
    with their counterclockwise orientation; the last boundary class equals
    minus their sum.  Boundary classes lie in the radical of the form and
    <l, d> = 1.
    """

    basis_names: tuple[str, ...]
    intersection_form: IntMatrix
    curve_classes: dict[TwistCurve, tuple[int, ...]]
    boundary_classes: dict[BoundaryLabel, tuple[int, ...]]

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

    boundary_classes: dict[BoundaryLabel, tuple[int, ...]] = {}
    for s, label in enumerate(ob.boundary_labels):
        if s < b - 1:
            boundary_classes[label] = unit(2 + s)
        else:
            boundary_classes[label] = tuple(
                -sum(boundary_classes[lab][i] for lab in ob.boundary_labels[: b - 1])
                for i in range(rank)
            )

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
    return PageHomologyData(
        basis_names=names,
        intersection_form=tuple(tuple(row) for row in form),
        curve_classes=classes,
        boundary_classes=boundary_classes,
    )


def _twisted_columns(data: PageHomologyData, twist_word) -> dict[int, list[int]]:
    """Columns of the monodromy action that can differ from the identity.

    A right-handed twist along c acts as x -> x + <x, c> c, so composing it
    onto phi is the rank-1 update phi <- phi + (phi c)(Jc)^T with J the
    intersection form: only the columns j with (Jc)_j != 0 change, and a
    class in the radical (Jc = 0) twists as the identity and is skipped.
    Those columns lie in the support of J, so phi is kept as the identity
    plus its columns over that support, keyed by index.
    """
    form = data.intersection_form
    support = [j for j, row in enumerate(form) if any(row)]
    cols = {j: [1 if i == j else 0 for i in range(data.rank)] for j in support}
    for curve in twist_word:
        c = data.curve_classes[curve]
        jc = {j: v for j in support if (v := sum(f * x for f, x in zip(form[j], c)))}
        if not jc:
            continue
        phi_c = list(c)  # every column off the support is still a unit vector
        for k, col in cols.items():
            if c[k]:
                phi_c = [p + c[k] * x for p, x in zip(phi_c, col)]
                phi_c[k] -= c[k]
        for j, v in jc.items():
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

    corrections = {}
    for label in labels[1:]:
        corr = list(data.boundary_classes[base])
        for m in range(_piece_of(base), _piece_of(label)):
            corr = [a + x for a, x in zip(corr, delta_cls[m])]
        corr = [a - x for a, x in zip(corr, data.boundary_classes[label])]
        corrections[label] = tuple(corr)
    return corrections


def openbook_homology(ob: OpenBookDescription) -> AbelianGroup:
    """First homology of the 3-manifold carrying the open book.

    Presented on the page basis plus the section class t of the mapping
    torus, with relations (phi - 1)x for every basis vector x and one
    meridian relation per boundary: t = 0 at the base boundary and
    t + correction(L) = 0 elsewhere (see _section_corrections).  The page
    data is built once, phi comes from the rank-1 twist updates of
    _twisted_columns, and the (phi - 1)e_j relations that are zero (every
    column phi leaves fixed) are dropped before the Smith normal form.
    """
    data = curve_homology_classes(ob)
    relations = []
    for j, col in _twisted_columns(data, ob.twist_word).items():
        col[j] -= 1
        if any(col):
            relations.append(tuple(col) + (0,))
    rank = data.rank
    relations.append((0,) * rank + (1,))
    corrections = _section_corrections(ob, data)
    for label in ob.boundary_labels[1:]:
        relations.append(corrections[label] + (1,))
    presentation = tuple(zip(*relations))  # columns = relations
    return cokernel(presentation)
