"""Classical laminate theory: ply stiffness, rotation, and A/B/D blocks.

Units follow the ply data sheet: moduli in GPa, thickness in mm, so A comes
out in GPa*mm (equivalently kN/mm), B in GPa*mm^2 and D in GPa*mm^3.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMaterialError, LayupParseError

__all__ = [
    "PlyProperties",
    "Layup",
    "ABDMatrices",
    "T700_PLY",
    "STANDARD_LAYUP_NOTATIONS",
    "standard_layups",
    "parse_layup",
    "MAX_PLIES",
    "ply_stiffness_q12",
    "rotate_to_laminate_axes",
    "abd_matrices",
    "stiffness_feature_row",
    "STIFFNESS_COLUMNS",
]


@dataclass(frozen=True)
class PlyProperties:
    """In-plane elastic constants of one unidirectional ply."""

    e1: float
    e2: float
    nu12: float
    g12: float
    thickness: float

    def __post_init__(self):
        # numpy scalars are stored as Python floats, so no float32 narrows the arithmetic
        for name in ("e1", "e2", "g12", "thickness"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Real) and math.isfinite(v) and v > 0):
                raise InvalidMaterialError(f"{name} must be strictly positive, got {v!r}")
            object.__setattr__(self, name, float(v))
        if not (isinstance(self.nu12, numbers.Real) and 0.0 < self.nu12 < 0.5):
            raise InvalidMaterialError(f"nu12 must lie in (0, 0.5), got {self.nu12!r}")
        object.__setattr__(self, "nu12", float(self.nu12))
        if self.nu12 * self.nu12 * self.e2 / self.e1 >= 1.0:
            raise InvalidMaterialError("compliance is not positive definite for these constants")


# Torayca T700G unidirectional carbon prepreg (GPa / mm).
T700_PLY = PlyProperties(e1=137.5, e2=8.4, nu12=0.309, g12=6.2, thickness=0.132)


@dataclass(frozen=True)
class Layup:
    """An ordered ply-angle stack (degrees, top to bottom) of one material."""

    angles: tuple
    ply: PlyProperties
    name: str = ""

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        if len(angles) < 1:
            raise InvalidMaterialError("a layup needs at least one ply")
        if not all(math.isfinite(a) for a in angles):
            raise InvalidMaterialError("ply angles must be finite")
        object.__setattr__(self, "angles", angles)

    @property
    def n_plies(self) -> int:
        return len(self.angles)


@dataclass(frozen=True)
class ABDMatrices:
    """Laminate stiffness blocks: extensional A, coupling B, bending D."""

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "d"):
            m = np.array(getattr(self, name), dtype=float)
            if m.shape != (3, 3):
                raise InvalidMaterialError(f"{name} block must be 3x3, got {m.shape}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)


_TOKEN_RE = re.compile(r"(-?\d+(?:\.\d+)?)(?:_(\d+))?")
_SUFFIX_RE = re.compile(r"_?(\d+)?([Ss])?")

# Most plies a notation may expand to; coupon laminates have tens of plies.
MAX_PLIES = 10_000


def parse_layup(text: str, ply: PlyProperties = T700_PLY, name: str = "") -> Layup:
    """Parse stacking notation like ``[90_2/45/-45]_2S`` into a Layup.

    Grammar: ``'[' angle('_'count)? ('/' angle('_'count)?)* ']' '_'? count? 'S'?``.
    ``_count`` after an angle repeats that ply, a count in the suffix repeats
    the whole group, and a trailing ``S`` mirrors the stack to make it
    symmetric. Whitespace is not allowed inside the brackets. A notation
    that expands to more than ``MAX_PLIES`` plies is rejected before any
    ply list is built.
    """
    s = text.strip()
    if not s.startswith("["):
        raise LayupParseError("layup notation must start with '['", 0)
    close = s.find("]")
    if close < 0:
        raise LayupParseError("unclosed '[' in layup notation", len(s) - 1)
    body = s[1:close]
    if not body:
        raise LayupParseError("empty layup", 1)

    group: list[tuple[float, int]] = []
    pos = 1
    for token in body.split("/"):
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise LayupParseError(f"bad ply token {token!r}", pos)
        repeat = int(m.group(2)) if m.group(2) else 1
        if repeat < 1:
            raise LayupParseError(f"ply repeat count must be >= 1 in {token!r}", pos)
        group.append((float(m.group(1)), repeat))
        pos += len(token) + 1

    suffix = s[close + 1 :]
    m = _SUFFIX_RE.fullmatch(suffix)
    if m is None:
        raise LayupParseError(f"bad layup suffix {suffix!r}", close + 1)
    copies = int(m.group(1)) if m.group(1) else 1
    mirrored = m.group(2) is not None
    n_plies = sum(repeat for _, repeat in group) * copies * (2 if mirrored else 1)
    if n_plies > MAX_PLIES:
        raise LayupParseError(f"layup expands to {n_plies} plies, more than {MAX_PLIES}", 0)
    angles = [angle for angle, repeat in group for _ in range(repeat)] * copies
    if mirrored:
        angles = angles + angles[::-1]
    return Layup(tuple(angles), ply, name or s)


# The coupon program used three symmetric stacks; stacks 1 and 3 share the
# same notation.
STANDARD_LAYUP_NOTATIONS = {
    1: "[90_2/45/-45]_2S",
    2: "[0/90_2/45/-45/90]_S",
    3: "[90_2/45/-45]_2S",
}


def standard_layups(ply: PlyProperties = T700_PLY) -> dict:
    """The three coupon layups, keyed by their 1-based id."""
    return {
        i: parse_layup(notation, ply, name=f"layup_{i}")
        for i, notation in STANDARD_LAYUP_NOTATIONS.items()
    }


def ply_stiffness_q12(ply: PlyProperties) -> np.ndarray:
    """Reduced in-plane stiffness of the ply in its own axes.

    Inverts the plane-stress compliance built from (E1, E2, nu12, G12):
    Q11 = E1/(1 - nu12*nu21), Q22 = E2/(1 - nu12*nu21),
    Q12 = nu12*E2/(1 - nu12*nu21), Q66 = G12, with nu21 = nu12*E2/E1.
    """
    nu21 = ply.nu12 * ply.e2 / ply.e1
    denom = 1.0 - ply.nu12 * nu21
    if denom <= 0.0 or not math.isfinite(denom):
        raise InvalidMaterialError("ply compliance is not invertible")
    q11 = ply.e1 / denom
    q22 = ply.e2 / denom
    q12 = ply.nu12 * ply.e2 / denom
    return np.array([[q11, q12, 0.0], [q12, q22, 0.0], [0.0, 0.0, ply.g12]])


def rotate_to_laminate_axes(q12: np.ndarray, angle_deg: float) -> np.ndarray:
    """Transformed reduced stiffness of a ply rotated by ``angle_deg``."""
    q = np.asarray(q12, dtype=float)
    q11, q12_, q22, q66 = q[0, 0], q[0, 1], q[1, 1], q[2, 2]
    th = math.radians(angle_deg)
    c, s = math.cos(th), math.sin(th)
    c2, s2 = c * c, s * s
    c4, s4, c2s2 = c2 * c2, s2 * s2, c2 * s2

    qb11 = q11 * c4 + 2.0 * (q12_ + 2.0 * q66) * c2s2 + q22 * s4
    qb22 = q11 * s4 + 2.0 * (q12_ + 2.0 * q66) * c2s2 + q22 * c4
    qb12 = (q11 + q22 - 4.0 * q66) * c2s2 + q12_ * (c4 + s4)
    qb16 = (q11 - q12_ - 2.0 * q66) * c2 * c * s + (q12_ - q22 + 2.0 * q66) * s2 * s * c
    qb26 = (q11 - q12_ - 2.0 * q66) * s2 * s * c + (q12_ - q22 + 2.0 * q66) * c2 * c * s
    qb66 = (q11 + q22 - 2.0 * q12_ - 2.0 * q66) * c2s2 + q66 * (c4 + s4)
    return np.array([[qb11, qb12, qb16], [qb12, qb22, qb26], [qb16, qb26, qb66]])


def abd_matrices(layup: Layup) -> ABDMatrices:
    """A/B/D stiffness blocks of the laminate.

    Ply interfaces z_k are measured from the middle plane; with per-ply
    stiffness Q_k in laminate axes,
    A = sum Q_k (z_k - z_{k-1}), B = (1/2) sum Q_k (z_k^2 - z_{k-1}^2),
    D = (1/3) sum Q_k (z_k^3 - z_{k-1}^3).
    """
    q12 = ply_stiffness_q12(layup.ply)
    qbars = np.stack([rotate_to_laminate_axes(q12, a) for a in layup.angles])
    n = layup.n_plies
    t = layup.ply.thickness
    z = -0.5 * n * t + t * np.arange(n + 1)

    d1 = z[1:] - z[:-1]
    d2 = z[1:] ** 2 - z[:-1] ** 2
    d3 = z[1:] ** 3 - z[:-1] ** 3
    a = np.tensordot(d1, qbars, axes=(0, 0))
    b = 0.5 * np.tensordot(d2, qbars, axes=(0, 0))
    d = np.tensordot(d3, qbars, axes=(0, 0)) / 3.0
    return ABDMatrices(a, b, d)


_UPPER_TRIANGLE = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_AXIS_LABEL = ("1", "2", "6")

STIFFNESS_COLUMNS = tuple(
    f"{block}_{_AXIS_LABEL[i]}{_AXIS_LABEL[j]}"
    for block in ("A", "B", "D")
    for i, j in _UPPER_TRIANGLE
)


def stiffness_feature_row(abd: ABDMatrices) -> np.ndarray:
    """The 18 unique stiffness terms, ordered A_11..A_66, B_11..B_66, D_11..D_66."""
    values = [block[i, j] for block in (abd.a, abd.b, abd.d) for i, j in _UPPER_TRIANGLE]
    return np.array(values)
